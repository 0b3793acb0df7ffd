package autotune_test

import (
	"errors"
	"reflect"
	"testing"

	"aiacc/autotune"
	"aiacc/cluster"
	"aiacc/engine"
	"aiacc/model"
	"aiacc/netmodel"
)

func simBase(gpus int) cluster.Config {
	return cluster.Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      cluster.V100(),
		Model:    model.ResNet50(),
		Engine:   cluster.EngineDefaults(cluster.AIACC),
	}
}

// Params.Apply is the one mapping from a point to the communication policy,
// and the simulator's configuration takes that policy whole. Distinct points
// of the simulator's space give distinct policies, so every Params field that
// varies alone changes what the simulator runs, and every point simulates.
func TestSimConfigSeesEveryField(t *testing.T) {
	base := simBase(64)
	base.Engine.MinSyncBytes = 1 << 10
	space := autotune.DefaultSpace().ForSimulator(base.Topology)
	if got := space.NodeGroups; len(got) != 2 || got[1] != 8 {
		t.Errorf("simulator node groups = %v, want [1 8]", got)
	}
	points := space.Points()
	// Ring and the tree at the topology's node group, each at depths {1, 2}.
	if len(points) != 7*8*5*(2+2) {
		t.Errorf("simulator space has %d points, want 1120", len(points))
	}
	in := make(map[autotune.Params]bool, len(points))
	policies := make(map[engine.Policy]autotune.Params, len(points))
	for _, p := range points {
		in[p] = true
		pol := p.Apply(base.Engine.Policy)
		if q, dup := policies[pol]; dup {
			t.Fatalf("%v and %v map to the same policy %+v", q, p, pol)
		}
		policies[pol] = p
		if pol.MinSyncBytes != 0 {
			t.Errorf("%v keeps MinSyncBytes %d; it must follow the new granularity", p, pol.MinSyncBytes)
		}
		cfg := base
		cfg.Engine.Policy = pol
		if _, err := cluster.Simulate(cfg); err != nil {
			t.Errorf("%v does not simulate: %v", p, err)
		}
	}

	// Every field but the algorithm and the node group, which move together
	// (ring points are flat, the tree runs the topology's one node group),
	// varies alone inside the space, so the distinct policies above cover it.
	fields := reflect.TypeOf(autotune.Params{}).NumField()
	values := make([]map[any]bool, fields)
	for i := range values {
		values[i] = make(map[any]bool)
		for _, p := range points {
			values[i][reflect.ValueOf(p).Field(i).Interface()] = true
		}
	}
	for i := range fields {
		name := reflect.TypeOf(autotune.Params{}).Field(i).Name
		alone := false
		for _, p := range points {
			for v := range values[i] {
				q := p
				reflect.ValueOf(&q).Elem().Field(i).Set(reflect.ValueOf(v))
				alone = alone || q != p && in[q]
			}
		}
		if !alone && name != "Algorithm" && name != "GPUsPerNode" {
			t.Errorf("Params.%s never varied alone", name)
		}
	}
}

// A tree point the simulator cannot price is a cluster.Simulate error, and
// costs 1e9.
func TestSimEvaluatorRejectsUnpricedTree(t *testing.T) {
	base := simBase(64)
	p := autotune.Params{Streams: 4, GranularityBytes: 4 << 20, Algorithm: autotune.AlgoTree, SegmentBytes: 256 << 10, GPUsPerNode: 4, PriorityDepth: 1}
	cfg := base
	cfg.Engine.Policy = p.Apply(base.Engine.Policy)
	if _, err := cluster.Simulate(cfg); !errors.Is(err, cluster.ErrBadConfig) {
		t.Errorf("Simulate(%v) error = %v", p, err)
	}
	if c := autotune.SimEvaluator(base)(p, 1); c != 1e9 {
		t.Errorf("cost of %v = %v, want 1e9", p, c)
	}
	for _, depth := range []int{1, 2} {
		ok := autotune.Params{Streams: 4, GranularityBytes: 4 << 20, Algorithm: autotune.AlgoTree, SegmentBytes: 256 << 10, GPUsPerNode: 8, PriorityDepth: depth}
		if c := autotune.SimEvaluator(base)(ok, 1); c <= 0 || c >= 1e9 {
			t.Errorf("cost of %v = %v", ok, c)
		}
	}
}
