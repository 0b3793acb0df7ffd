package autotune

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aiacc/model"
	"aiacc/netmodel"
)

// syntheticCost builds a smooth cost surface over the space with a known
// optimum, plus deterministic pseudo-noise.
func syntheticCost(space Space, opt Params) Evaluator {
	target := space.Normalize(opt)
	return func(p Params, iters int) float64 {
		x := space.Normalize(p)
		var d2 float64
		for i := range x {
			d := x[i] - target[i]
			d2 += d * d
		}
		// Mild deterministic ripple so searchers see realistic structure.
		ripple := 0.01 * math.Sin(13*x[0]+7*x[1]+3*x[2]+5*x[3]+11*x[4]+17*x[5])
		return 0.1 + d2 + ripple
	}
}

// Dimension indices of the table, for Neighbor.
const (
	dimAlgo = iota
	dimStreams
	dimGranularity
	dimSegment
	dimNodeGroup
	dimDepth
)

func TestSpaceBasics(t *testing.T) {
	s := DefaultSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 7 streams x 8 granularities x 5 segments, times ring at depths
	// {1, 2} plus the tree at node groups {2, 4, 8}: the product's 4480
	// points hold only 1400 distinct engine configurations.
	if s.Size() != 7*8*5*(2+3) {
		t.Errorf("Size = %d, want 1400", s.Size())
	}
	// Points are distinct and each is its own canonical form.
	points := s.Points()
	for i, p := range points {
		if got := slices.Index(points, p); got != i {
			t.Fatalf("point %d = %v repeats point %d", i, p, got)
		}
		if canonical(p) != p {
			t.Fatalf("point %v is not canonical", p)
		}
	}
	// Equivalent spellings of a point share its canonical form.
	ring := Params{Streams: 2, GranularityBytes: 1 << 20, Algorithm: AlgoRing, SegmentBytes: 64 << 10, GPUsPerNode: 1, PriorityDepth: 1}
	if !slices.Contains(points, ring) {
		t.Errorf("%v missing", ring)
	}
	for _, alias := range []Params{
		{Streams: 2, GranularityBytes: 1 << 20, Algorithm: AlgoRing, SegmentBytes: 64 << 10, GPUsPerNode: 4, PriorityDepth: 0},
		{Streams: 2, GranularityBytes: 1 << 20, Algorithm: AlgoTree, SegmentBytes: 64 << 10, GPUsPerNode: 1, PriorityDepth: 2},
	} {
		if canonical(alias) != ring {
			t.Errorf("canonical(%v) = %v, want %v", alias, canonical(alias), ring)
		}
	}
	if err := (Space{}).Validate(); !errors.Is(err, ErrBadSpace) {
		t.Errorf("empty space error = %v", err)
	}
	bad := DefaultSpace()
	bad.Algorithms = []string{AlgoRing, "x"}
	if err := bad.Validate(); !errors.Is(err, ErrBadSpace) || bad.Points() != nil {
		t.Errorf("unknown algorithm: error = %v, %d points", err, len(bad.Points()))
	}
	// Node groups a world cannot form leave the space.
	if got := s.ForWorld(4).NodeGroups; !slices.Equal(got, []int{1, 2, 4}) {
		t.Errorf("ForWorld(4) node groups = %v", got)
	}
	if got := s.ForWorld(4).Size(); got != 7*8*5*(2+2) {
		t.Errorf("ForWorld(4) size = %d, want 1120", got)
	}
}

func TestSpaceNeighbor(t *testing.T) {
	s := DefaultSpace()
	p := Params{Streams: 8, GranularityBytes: 8 << 20, Algorithm: AlgoRing, SegmentBytes: 256 << 10, GPUsPerNode: 1, PriorityDepth: 1}
	up := s.Neighbor(p, dimStreams, 1)
	if up.Streams != 12 {
		t.Errorf("streams neighbor = %d, want 12", up.Streams)
	}
	down := s.Neighbor(p, dimGranularity, -1)
	if down.GranularityBytes != 4<<20 {
		t.Errorf("granularity neighbor = %d", down.GranularityBytes)
	}
	seg := s.Neighbor(p, dimSegment, 1)
	if seg.SegmentBytes != 1<<20 {
		t.Errorf("segment neighbor = %d", seg.SegmentBytes)
	}
	// Moving a ring point to the tree also picks the nearest node group,
	// and the tree's one class.
	flip := s.Neighbor(p, dimAlgo, 1)
	if flip.Algorithm != AlgoTree || flip.GPUsPerNode != 2 || flip.PriorityDepth != 1 {
		t.Errorf("algorithm neighbor = %v", flip)
	}
	if got := s.Neighbor(p, dimNodeGroup, 1); got != flip {
		t.Errorf("node-group neighbor of a ring point = %v, want %v", got, flip)
	}
	// A tree point asked for more classes becomes the ring.
	deep := s.Neighbor(flip, dimDepth, 1)
	if deep.Algorithm != AlgoRing || deep.PriorityDepth != 2 || deep.Streams != 8 {
		t.Errorf("depth neighbor of a tree point = %v", deep)
	}
	for d := range dims {
		for _, dir := range []int{-1, 1} {
			if q := s.Neighbor(p, d, dir); !slices.Contains(s.Points(), q) {
				t.Errorf("Neighbor(%v, %d, %d) = %v not in space", p, d, dir, q)
			}
		}
	}
	// Clamping at the boundary.
	edge := Params{Streams: 24, GranularityBytes: 64 << 20, Algorithm: AlgoTree, SegmentBytes: 4 << 20, GPUsPerNode: 8, PriorityDepth: 1}
	if got := s.Neighbor(edge, dimStreams, 1); got != edge {
		t.Errorf("neighbor must clamp at the top: %v", got)
	}
	if got := s.Neighbor(edge, dimSegment, 1); got.SegmentBytes != 4<<20 {
		t.Error("segment neighbor must clamp at the top")
	}
}

func TestSpaceAround(t *testing.T) {
	s := DefaultSpace()
	p := Params{Streams: 8, GranularityBytes: 512 << 10, Algorithm: AlgoTree, SegmentBytes: 4 << 20, GPUsPerNode: 4, PriorityDepth: 1}
	sub := s.Around(p)
	want := Space{
		Streams:       []int{4, 8, 12},
		Granularities: []int64{512 << 10, 1 << 20},
		Algorithms:    []string{AlgoRing, AlgoTree},
		Segments:      []int64{1 << 20, 4 << 20},
		NodeGroups:    []int{2, 4, 8},
		Depths:        []int{1, 2},
	}
	if fmt.Sprint(sub) != fmt.Sprint(want) {
		t.Errorf("Around(%v) = %+v, want %+v", p, sub, want)
	}
	if !slices.Contains(sub.Points(), p) {
		t.Error("Around must contain its centre")
	}
	if fmt.Sprint(s) != fmt.Sprint(DefaultSpace()) {
		t.Error("Around modified the space it narrowed")
	}
}

func TestNormalizeRange(t *testing.T) {
	s := DefaultSpace()
	for _, p := range s.Points() {
		for d, x := range s.Normalize(p) {
			if x < 0 || x > 1 {
				t.Fatalf("Normalize(%v)[%d] = %v out of [0,1]", p, d, x)
			}
		}
	}
	lo := s.Normalize(Params{Streams: 1, GranularityBytes: 512 << 10, Algorithm: AlgoRing, SegmentBytes: 64 << 10, GPUsPerNode: 1, PriorityDepth: 0})
	hi := s.Normalize(Params{Streams: 24, GranularityBytes: 64 << 20, Algorithm: AlgoTree, SegmentBytes: 4 << 20, GPUsPerNode: 8, PriorityDepth: 2})
	if !slices.Equal(lo, []float64{0, 0, 0, 0, 0, 0}) {
		t.Errorf("low corner = %v", lo)
	}
	if !slices.Equal(hi, []float64{1, 1, 1, 1, 1, 1}) {
		t.Errorf("high corner = %v", hi)
	}
}

// A seeded PBT run must explore every dimension of the table: each replaced
// member is a one-step perturbation of a surviving member, and over the run
// every dimension is the one that moved at least once.
func TestPBTPerturbsEveryDimension(t *testing.T) {
	space := DefaultSpace()
	eval := syntheticCost(space, Params{Streams: 4, GranularityBytes: 4 << 20, Algorithm: AlgoTree, SegmentBytes: 128 << 10, GPUsPerNode: 4})
	p := NewPBT(space, 4, rand.New(rand.NewSource(5)))
	moved := make([]bool, len(space.Normalize(Params{})))
	for gen := 0; gen < 100; gen++ {
		before := append([]Params(nil), p.population...)
		for range before {
			prop := p.Propose(1)
			p.Observe(prop, eval(prop.Params, 1))
		}
		for i, q := range p.population {
			if q == before[i] {
				continue
			}
			// Credit the dimensions q differs in from its closest source, a
			// surviving member.
			var diff []int
			for j, src := range before {
				if p.population[j] != src {
					continue
				}
				var d []int
				for k, x := range space.Normalize(q) {
					if x != space.Normalize(src)[k] {
						d = append(d, k)
					}
				}
				if diff == nil || len(d) < len(diff) {
					diff = d
				}
			}
			for _, k := range diff {
				moved[k] = true
			}
		}
	}
	for d, ok := range moved {
		if !ok {
			t.Errorf("PBT never perturbed dimension %d", d)
		}
	}
}

// Every individual searcher must approach a known optimum within a modest
// budget on the synthetic surface.
func TestSearchersConverge(t *testing.T) {
	space := DefaultSpace()
	opt := Params{Streams: 8, GranularityBytes: 8 << 20, Algorithm: AlgoRing, SegmentBytes: 256 << 10, GPUsPerNode: 1}
	eval := syntheticCost(space, opt)
	mk := map[string]func() Searcher{
		"grid":      func() Searcher { return NewGrid(space) },
		"pbt":       func() Searcher { return NewPBT(space, 4, rand.New(rand.NewSource(1))) },
		"bayes":     func() Searcher { return NewBayes(space, rand.New(rand.NewSource(2))) },
		"hyperband": func() Searcher { return NewHyperband(space, 3, 9, rand.New(rand.NewSource(3))) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			s := f()
			if s.Name() != name {
				t.Errorf("Name = %q, want %q", s.Name(), name)
			}
			bestCost := math.Inf(1)
			// The lexicographic grid sweep needs enough budget to reach the
			// optimum's region (point 284 of 1400), and hyperband's random
			// sampling proportionally many draws; the model-guided searchers
			// converge on the standard budget.
			budget := 120
			switch name {
			case "grid":
				budget = 480
			case "hyperband":
				budget = 270
			}
			spent := 0
			for spent < budget {
				prop := s.Propose(budget - spent)
				if prop.Iters < 1 {
					prop.Iters = 1
				}
				cost := eval(prop.Params, prop.Iters)
				spent += prop.Iters
				if cost < bestCost {
					bestCost = cost
				}
				s.Observe(prop, cost)
			}
			// The optimum has cost ~0.1; demand within 0.15 of it.
			if bestCost > 0.25 {
				t.Errorf("best cost = %.3f after %d iters, want <= 0.25", bestCost, spent)
			}
		})
	}
}

func TestMetaFindsOptimum(t *testing.T) {
	space := DefaultSpace()
	opt := Params{Streams: 12, GranularityBytes: 4 << 20, Algorithm: AlgoRing, SegmentBytes: 128 << 10}
	eval := syntheticCost(space, opt)
	m, err := NewMeta(DefaultEnsemble(space, 42))
	if err != nil {
		t.Fatal(err)
	}
	best, err := m.Tune(eval, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The found point must be close to the optimum on the surface.
	bx, ox := space.Normalize(best), space.Normalize(opt)
	var d2 float64
	for i := 0; i < 4; i++ {
		d := bx[i] - ox[i]
		d2 += d * d
	}
	if d2 > 0.1 {
		t.Errorf("best %v too far from optimum %v (d²=%.3f)", best, opt, d2)
	}
	_, cost := m.Best()
	if cost > 0.25 {
		t.Errorf("best cost = %.3f", cost)
	}
	// The trace must account for the full budget and mark improvements.
	trace := m.Trace()
	total := 0
	sawBest := false
	usedSearchers := map[string]bool{}
	for _, r := range trace {
		total += r.Iters
		usedSearchers[r.Searcher] = true
		if r.NewBest {
			sawBest = true
		}
	}
	if total != 100 {
		t.Errorf("trace accounts for %d iters, want 100", total)
	}
	if !sawBest {
		t.Error("no NewBest records")
	}
	// The bandit must have tried every technique at least once.
	if len(usedSearchers) != 4 {
		t.Errorf("techniques used = %v, want all 4", usedSearchers)
	}
}

func TestMetaBudgetValidation(t *testing.T) {
	m, err := NewMeta(DefaultEnsemble(DefaultSpace(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tune(func(Params, int) float64 { return 1 }, 0); !errors.Is(err, ErrBadBudget) {
		t.Errorf("zero budget error = %v", err)
	}
	if _, err := m.Tune(nil, 10); err == nil {
		t.Error("nil evaluator must fail")
	}
	if _, err := NewMeta(nil); err == nil {
		t.Error("empty ensemble must fail")
	}
}

func TestMetaDeterminism(t *testing.T) {
	space := DefaultSpace()
	eval := syntheticCost(space, Params{Streams: 4, GranularityBytes: 2 << 20, Algorithm: AlgoTree})
	run := func() Params {
		m, err := NewMeta(DefaultEnsemble(space, 7))
		if err != nil {
			t.Fatal(err)
		}
		best, err := m.Tune(eval, 60)
		if err != nil {
			t.Fatal(err)
		}
		return best
	}
	if run() != run() {
		t.Error("tuning with the same seed must be deterministic")
	}
}

func TestMetaOptions(t *testing.T) {
	m, err := NewMeta(DefaultEnsemble(DefaultSpace(), 1), WithWindow(10), WithExploration(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if m.windowCap != 10 || m.c != 0.5 {
		t.Errorf("options not applied: window=%d c=%v", m.windowCap, m.c)
	}
}

func TestCacheWarmStart(t *testing.T) {
	c := NewCache(0)
	rn50 := model.ResNet50()
	topo32 := netmodel.V100Cluster(32)
	tuned := Params{Streams: 8, GranularityBytes: 8 << 20, Algorithm: AlgoRing, SegmentBytes: 256 << 10}
	c.Store(rn50, topo32, tuned)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	// Identical deployment: exact hit at distance 0.
	p, dist, ok := c.Lookup(rn50, topo32)
	if !ok || p != tuned || dist != 0 {
		t.Errorf("identical lookup = %v, %v, %v", p, dist, ok)
	}

	// Same model, same node shape, one more node: still similar.
	p, _, ok = c.Lookup(rn50, netmodel.V100Cluster(40))
	if !ok || p != tuned {
		t.Errorf("near lookup failed: %v %v", p, ok)
	}

	// Completely different model and a much bigger cluster: rejected.
	_, dist, ok = c.Lookup(model.CTR(), netmodel.V100Cluster(256))
	if ok {
		t.Errorf("dissimilar lookup accepted at distance %v", dist)
	}
}

func TestCachePrefersNearest(t *testing.T) {
	c := NewCache(1e9) // accept anything; test ordering only
	pSmall := Params{Streams: 2, GranularityBytes: 1 << 20, Algorithm: AlgoRing}
	pBig := Params{Streams: 24, GranularityBytes: 32 << 20, Algorithm: AlgoRing}
	c.Store(model.ResNet50(), netmodel.V100Cluster(8), pSmall)
	c.Store(model.ResNet50(), netmodel.V100Cluster(256), pBig)
	got, _, ok := c.Lookup(model.ResNet50(), netmodel.V100Cluster(240))
	if !ok || got != pBig {
		t.Errorf("nearest lookup = %v, want big-cluster params", got)
	}
	got, _, ok = c.Lookup(model.ResNet50(), netmodel.V100Cluster(8))
	if !ok || got != pSmall {
		t.Errorf("nearest lookup = %v, want small-cluster params", got)
	}
}

func TestModelGraphCompression(t *testing.T) {
	// The CTR model's 4096 identical embedding layers must collapse to a
	// handful of nodes, keeping GED tractable.
	g := ModelGraph(model.CTR())
	if g.Nodes() > 32 {
		t.Errorf("CTR model graph has %d nodes, want few after merging", g.Nodes())
	}
	// Distinct architectures produce distinct graphs.
	rn := ModelGraph(model.ResNet50())
	if rn.Nodes() == g.Nodes() && rn.Edges() == g.Edges() {
		t.Error("ResNet-50 and CTR graphs should differ structurally")
	}
}
