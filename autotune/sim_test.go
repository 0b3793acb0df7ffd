package autotune

import (
	"errors"
	"testing"

	"aiacc/cluster"
	"aiacc/model"
	"aiacc/netmodel"
)

func simBase(gpus int) cluster.Config {
	return cluster.Config{
		Topology:      netmodel.V100Cluster(gpus),
		GPU:           cluster.V100(),
		Model:         model.ResNet50(),
		Engine:        cluster.EngineDefaults(cluster.AIACC),
		Decentralized: true,
	}
}

// Changing any single Params field to another value of the simulator's space
// must change the simulated engine: no dimension is dropped on the way to
// the simulator.
func TestSimConfigSeesEveryField(t *testing.T) {
	base := simBase(64)
	space := DefaultSpace().ForSimulator(base.Topology)
	points := space.Points()
	// Ring at depths {1, 2} plus the tree at the topology's node group.
	if len(points) != 7*8*5*(2+1) {
		t.Errorf("simulator space has %d points, want 840", len(points))
	}
	in := make(map[Params]bool, len(points))
	for _, p := range points {
		in[p] = true
	}
	changed := make([]int, len(dims))
	engines := make(map[cluster.Engine]Params, len(points))
	for _, p := range points {
		cfg, err := SimConfig(base, p)
		if err != nil {
			t.Fatalf("SimConfig(%v): %v", p, err)
		}
		if prev, dup := engines[cfg.Engine]; dup {
			t.Fatalf("%v and %v map to the same engine %+v", prev, p, cfg.Engine)
		}
		engines[cfg.Engine] = p
		for d, dim := range dims {
			for j := range dim.size(space) {
				q := p
				dim.set(&q, space, j)
				if q == p || !in[q] {
					continue
				}
				changed[d]++
				if qc, _ := SimConfig(base, q); qc.Engine == cfg.Engine {
					t.Fatalf("%v and %v map to the same engine %+v", p, q, cfg.Engine)
				}
			}
		}
	}
	// Every other dimension varies on its own inside the space; the algorithm
	// and the node group move together (ring points are flat, the tree runs
	// the topology's one node group), which the distinct engines above cover.
	for d, n := range changed {
		if n == 0 && d != dimAlgo && d != dimNodeGroup {
			t.Errorf("dimension %s never varied alone", dims[d].name)
		}
	}
	if got := space.NodeGroups; len(got) != 2 || got[1] != 8 {
		t.Errorf("simulator node groups = %v, want [1 8]", got)
	}
}

// A tree point the simulator cannot price is an error, and costs 1e9.
func TestSimConfigRejectsUnpricedTree(t *testing.T) {
	base := simBase(64)
	for _, p := range []Params{
		{Streams: 4, GranularityBytes: 4 << 20, Algorithm: AlgoTree, SegmentBytes: 256 << 10, GPUsPerNode: 4, PriorityDepth: 1},
		{Streams: 4, GranularityBytes: 4 << 20, Algorithm: AlgoTree, SegmentBytes: 256 << 10, GPUsPerNode: 8, PriorityDepth: 2},
	} {
		if _, err := SimConfig(base, p); !errors.Is(err, cluster.ErrBadConfig) {
			t.Errorf("SimConfig(%v) error = %v", p, err)
		}
		if c := SimEvaluator(base)(p, 1); c != 1e9 {
			t.Errorf("cost of %v = %v, want 1e9", p, c)
		}
	}
	ok := Params{Streams: 4, GranularityBytes: 4 << 20, Algorithm: AlgoTree, SegmentBytes: 256 << 10, GPUsPerNode: 8, PriorityDepth: 1}
	if c := SimEvaluator(base)(ok, 1); c <= 0 || c >= 1e9 {
		t.Errorf("cost of %v = %v", ok, c)
	}
}
