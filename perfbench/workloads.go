package main

// workloads.go: the three workloads. Each is an internal/spec document, a
// batched dynamic, and the referee that checks its samples. README.md says
// why each was chosen and which layer it stresses.

import (
	_ "embed"
	"fmt"

	"repro/internal/graph"
	"repro/internal/psample"
	"repro/internal/spec"
)

//go:embed specs/coloring-torus32-q14.json
var torusColoringDoc []byte

// treeDepth gives the complete binary tree 2^12 − 1 = 4095 vertices.
const treeDepth = 11

type workload struct {
	name    string
	dynamic string
	// doc returns the workload's spec document.
	doc func() ([]byte, error)
	// referee builds the distributional check for a built instance.
	referee func(b *spec.Built) (referee, error)
	// stages is the number of barrier-separated stages of one native round
	// of the dynamic on the instance (chromatic: one per color class;
	// luby: draw keys, then pick winners and sample; metropolis: propose,
	// filter, adopt).
	stages func(r *psample.Rules) int
}

var workloads = []workload{
	{
		name:    "hardcore-tree4095-chromatic",
		dynamic: "chromatic",
		doc:     treeHardcoreDoc,
		referee: func(b *spec.Built) (referee, error) {
			return newOccupancyReferee(b.Input, b.File.Model.Lambda, chains)
		},
		stages: func(r *psample.Rules) int { return len(r.ClassSchedule()) },
	},
	{
		name:    "coloring-torus32-luby",
		dynamic: "luby",
		doc:     func() ([]byte, error) { return torusColoringDoc, nil },
		referee: func(b *spec.Built) (referee, error) { return newUniformReferee(b.File.Model.Q), nil },
		stages:  func(*psample.Rules) int { return 2 },
	},
	{
		name:    "coloring-torus32-metropolis",
		dynamic: "metropolis",
		doc:     func() ([]byte, error) { return torusColoringDoc, nil },
		referee: func(b *spec.Built) (referee, error) { return newUniformReferee(b.File.Model.Q), nil },
		stages:  func(*psample.Rules) int { return 3 },
	},
}

// treeHardcoreDoc returns hardcore λ = 1 on the complete binary tree with
// 4095 vertices. The "tree" generator caps its size parameter at
// spec.MaxGeneratorN, so the document declares the tree as an explicit
// edge list.
func treeHardcoreDoc() ([]byte, error) {
	f := &spec.File{
		Version: spec.Version,
		Name:    "hardcore-tree4095",
		Graph:   spec.GraphFrom(graph.CompleteTree(2, treeDepth)),
		Model:   &spec.Model{Kind: "hardcore", Lambda: 1},
	}
	return f.Marshal()
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
