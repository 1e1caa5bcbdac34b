package psample

// chromaticlocal.go runs ChromaticGlauber as a genuine message-passing
// algorithm on the local.Network simulator. The chromatic schedule itself
// is a global precomputation — the coloring — but the LOCAL model allows
// precomputed input at the nodes, so each node is handed its own color
// (its class index in the cached Rules.ClassSchedule) as node input, and
// from there the dynamics is purely local: in stage s every node of color
// s heat-baths on its neighbors' last-broadcast spins, everyone else
// relays. One stage is pipelined per LOCAL round exactly like the other
// harnesses — the message of round t carries the sender's spin after
// stage t — so R sweeps over a χ-class schedule cost χ·R+1 LOCAL rounds
// (χ stages per sweep plus the initial exchange).
//
// Correctness is the same independent-set argument as the in-process
// engine: a stage updates one color class, an independent set of the
// interaction graph whose factor scopes are cliques, so simultaneous
// updates never share a factor and each stage is a product of ordinary
// heat-bath kernels. The harness runs glauber.HeatBathX, whose
// conditional weights are bit-identical to the batched engine's fused
// kernel, so the two cannot drift apart.

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/glauber"
	"repro/internal/local"
	"repro/internal/state"
)

// cgNodeState is the per-node state of the ChromaticGlauber LOCAL harness.
type cgNodeState struct {
	val uint8
	// color is the node's precomputed class index (node input), -1 for
	// pinned vertices, which never update and only relay.
	color int
	// cfg is the node's view of its closed neighborhood: the cell at u for
	// neighbor u is u's spin as of the previous stage.
	cfg  *state.Lattice
	cond []float64
	done int
	// err records a failed update; the simulator has no error channel for
	// steps, so it is surfaced through the final state.
	err error
}

// cgMsg is the round message: the sender's spin after the current stage
// (one byte, the raw compact cell).
type cgMsg struct {
	val uint8
}

// ChromaticGlauberLOCAL runs R sweeps of ChromaticGlauber by message
// passing on the network (which must be the instance's interaction graph)
// and returns the final configuration together with the LOCAL rounds
// consumed (χ·R+1 for a χ-class schedule: one stage per LOCAL round plus
// the initial exchange). The coloring is the rules' cached class schedule,
// distributed to each node as its node input.
func ChromaticGlauberLOCAL(net *local.Network, r *Rules, R int, seed int64) (dist.Config, int, error) {
	rngs, err := networkFor(net, r, seed)
	if err != nil {
		return nil, 0, err
	}
	start, err := r.Start()
	if err != nil {
		return nil, 0, err
	}
	classes := r.ClassSchedule()
	chi := len(classes)
	if R <= 0 || chi == 0 {
		// Nothing to sweep (or a fully pinned instance, whose sweeps are
		// no-ops): the start is the answer, no rounds consumed.
		return start, 0, nil
	}
	color := make([]int, r.n)
	for v := range color {
		color[v] = -1
	}
	for s, class := range classes {
		for _, v := range class {
			color[v] = s
		}
	}
	stages := chi * R
	g := net.G
	init := func(v int) any {
		view, err := nodeView(r.n, r.q)
		st := &cgNodeState{
			val:   uint8(start[v]),
			color: color[v],
			cfg:   view,
			cond:  make([]float64, r.q),
		}
		if err != nil {
			st.err = err
			return st
		}
		st.cfg.Set(v, 0, int(st.val))
		return st
	}
	step := func(v, round int, nodeState any, inbox []local.Message) (any, []local.Message, bool) {
		st := nodeState.(*cgNodeState)
		if st.err != nil {
			return st, nil, true
		}
		if round > 0 {
			for _, m := range inbox {
				st.cfg.Set(m.From, 0, int(m.Payload.(cgMsg).val))
			}
			if st.color == (round-1)%chi {
				st.cfg.Set(v, 0, int(st.val))
				if err := glauber.HeatBathX(r.eng, st.cfg, 0, v, st.cond, &rngs[v]); err != nil {
					st.err = err
					return st, nil, true
				}
				st.val = uint8(st.cfg.Get(v, 0))
			}
			st.done++
			if st.done >= stages {
				return st, nil, true
			}
		}
		out := make([]local.Message, 0, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			out = append(out, local.Message{From: v, To: u, Payload: cgMsg{val: st.val}})
		}
		return st, out, false
	}
	res, err := net.Run(stages+1, init, step)
	if err != nil {
		return nil, 0, err
	}
	out := dist.NewConfig(r.n)
	for v := 0; v < r.n; v++ {
		st := res.States[v].(*cgNodeState)
		if st.err != nil {
			return nil, 0, fmt.Errorf("psample: heat-bath update failed at node %d: %w", v, st.err)
		}
		out[v] = int(st.val)
	}
	return out, res.Rounds, nil
}
