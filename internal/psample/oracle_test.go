package psample

// oracle_test.go is the serial reference of both dynamics: one chain, one
// RNG stream (dist.NewXoshiro(seed, 0)), no worker pool, and the plainest
// form of each update rule — the Luby phase decided per vertex through
// construct.Beats, the heat bath through glauber.HeatBathX, and the
// LocalMetropolis filter one factor at a time through FilterProbLattice.
// The batched engines at B = 1 on one worker consume their stream in the
// same order against bit-identical kernels, so the agreement tests in
// batch_test.go compare them to these references symbol for symbol.

import (
	"repro/internal/construct"
	"repro/internal/dist"
	"repro/internal/glauber"
	"repro/internal/state"
)

// winsPhase reports whether free vertex v wins the round's Luby phase: its
// draw beats the draw of every free neighbor (construct.Beats is the
// single source of truth for the phase rule, shared with the MIS
// construction).
func winsPhase(r *Rules, v int, draws []float64) bool {
	for _, u := range r.in.Spec.G.Neighbors(v) {
		if r.free[u] && construct.Beats(draws[u], u, draws[v], v) {
			return false
		}
	}
	return true
}

// oracleLuby is the serial LubyGlauber reference. Each round draws one
// phase value per free vertex in increasing order, then heat-baths every
// phase winner in increasing order with one uniform each.
type oracleLuby struct {
	r       *Rules
	lat     *state.Lattice
	draws   []float64
	cond    []float64
	rng     dist.Xoshiro
	updates int64
}

func newOracleLuby(r *Rules, seed int64) (*oracleLuby, error) {
	lat, err := r.StartLattice(1)
	if err != nil {
		return nil, err
	}
	return &oracleLuby{
		r:     r,
		lat:   lat,
		draws: make([]float64, r.n),
		cond:  make([]float64, r.q),
		rng:   dist.NewXoshiro(seed, 0),
	}, nil
}

func (s *oracleLuby) Run(rounds int) error {
	r := s.r
	for range rounds {
		for _, v := range r.freeList {
			s.draws[v] = s.rng.Float64()
		}
		for _, v := range r.freeList {
			if !winsPhase(r, v, s.draws) {
				continue
			}
			if err := glauber.HeatBathX(r.eng, s.lat, 0, v, s.cond, &s.rng); err != nil {
				return err
			}
			s.updates++
		}
	}
	return nil
}

func (s *oracleLuby) State() dist.Config { return s.lat.Chain(0) }

func (s *oracleLuby) Updates() int64 { return s.updates }

// oracleMetropolis is the serial LocalMetropolis reference. Each round
// draws one proposal per free vertex in increasing order, flips one
// filter coin per acceptance factor in factor order, and adopts every
// proposal whose factors all accepted.
type oracleMetropolis struct {
	r       *Rules
	lat     *state.Lattice
	prop    *state.Lattice
	accOK   []bool
	rng     dist.Xoshiro
	accepts int64
}

func newOracleMetropolis(r *Rules, seed int64) (*oracleMetropolis, error) {
	if err := r.MetropolisReady(); err != nil {
		return nil, err
	}
	lat, err := r.StartLattice(1)
	if err != nil {
		return nil, err
	}
	prop, err := r.StartLattice(1)
	if err != nil {
		return nil, err
	}
	return &oracleMetropolis{
		r:     r,
		lat:   lat,
		prop:  prop,
		accOK: make([]bool, len(r.acc)),
		rng:   dist.NewXoshiro(seed, 0),
	}, nil
}

func (s *oracleMetropolis) Run(rounds int) error {
	r := s.r
	for range rounds {
		for _, v := range r.freeList {
			s.prop.Set(v, 0, r.propCDF[v].Draw(&s.rng))
		}
		for j := range r.acc {
			p, err := r.FilterProbLattice(j, s.lat, s.prop, 0)
			if err != nil {
				return err
			}
			s.accOK[j] = s.rng.Float64() < p
		}
		for _, v := range r.freeList {
			ok := true
			for _, j := range r.AccAt(v) {
				ok = ok && s.accOK[j]
			}
			if ok {
				s.lat.Set(v, 0, s.prop.Get(v, 0))
				s.accepts++
			}
		}
	}
	return nil
}

func (s *oracleMetropolis) State() dist.Config { return s.lat.Chain(0) }

func (s *oracleMetropolis) Accepts() int64 { return s.accepts }
