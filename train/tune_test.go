package train

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"aiacc/autotune"
	"aiacc/engine"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/transport"
)

// smallSpace keeps live tuning fast in tests.
func smallSpace() autotune.Space {
	return autotune.Space{
		Streams:       []int{1, 2, 4},
		Granularities: []int64{32 << 10, 128 << 10},
		Algorithms:    []string{autotune.AlgoRing, autotune.AlgoTree},
		Segments:      []int64{16 << 10, 64 << 10},
		NodeGroups:    []int{1, 2},
		Depths:        []int{0, 2},
	}
}

// Live tuning across 3 workers must complete, consume the budget as real
// training steps, and return identical parameters on every rank.
func TestTuneLiveAgreesAcrossRanks(t *testing.T) {
	const size = 3
	space := smallSpace()
	net, err := transport.NewMem(size, space.Streams[len(space.Streams)-1]+1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()

	base := engine.DefaultConfig()
	base.GPUsPerNode = 2 // hierarchical candidates need a node grouping

	results := make([]TuneResult, size)
	var wg sync.WaitGroup
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			comm := mpi.NewWorld(ep)
			producer := NewSyntheticProducer(model.TinyMLP(), r)
			sgd, err := optimizer.NewSGD(optimizer.Const(0.01), 0, 0)
			if err != nil {
				errc <- err
				return
			}
			res, err := TuneLive(comm, base, space, 10, producer,
				func() optimizer.Optimizer { return sgd }, 42)
			if err != nil {
				errc <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			results[r] = res
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for r := 1; r < size; r++ {
		if results[r].Best != results[0].Best {
			t.Errorf("rank %d chose %v, rank 0 chose %v", r, results[r].Best, results[0].Best)
		}
	}
	res := results[0]
	if res.StepsDone != 10 {
		t.Errorf("StepsDone = %d, want the full budget of 10", res.StepsDone)
	}
	if res.Trials < 2 {
		t.Errorf("Trials = %d, want several candidates", res.Trials)
	}
	if res.BestCost <= 0 {
		t.Errorf("BestCost = %v", res.BestCost)
	}
	if res.Best.Streams < 1 || res.Best.GranularityBytes < 4 {
		t.Errorf("Best = %v", res.Best)
	}
}

func TestTuneLiveValidation(t *testing.T) {
	net, err := transport.NewMem(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	comm := mpi.NewWorld(ep)
	producer := NewSyntheticProducer(model.TinyMLP(), 0)
	sgd, _ := optimizer.NewSGD(optimizer.Const(0.01), 0, 0)
	factory := func() optimizer.Optimizer { return sgd }

	if _, err := TuneLive(nil, engine.DefaultConfig(), smallSpace(), 5, producer, factory, 1); !errors.Is(err, ErrBadTune) {
		t.Errorf("nil comm error = %v", err)
	}
	if _, err := TuneLive(comm, engine.DefaultConfig(), smallSpace(), 5, nil, factory, 1); !errors.Is(err, ErrBadTune) {
		t.Errorf("nil producer error = %v", err)
	}
	if _, err := TuneLive(comm, engine.DefaultConfig(), autotune.Space{}, 5, producer, factory, 1); !errors.Is(err, autotune.ErrBadSpace) {
		t.Errorf("empty space error = %v", err)
	}
	// Transport with too few streams for the space.
	if _, err := TuneLive(comm, engine.DefaultConfig(), smallSpace(), 5, producer, factory, 1); !errors.Is(err, ErrBadTune) {
		t.Errorf("stream shortfall error = %v", err)
	}
}

// tunedKey is the part of an engine configuration the tuner sets.
type tunedKey struct {
	algorithm     engine.Algorithm
	streams       int
	granularity   int64
	segment       int64
	gpusPerNode   int
	priorityDepth int
}

// effectiveKey is the configuration cfg actually runs, by the equivalences
// of NewEngine and the collectives, stated here independently of the
// tuner's canonical form: a tree of one-rank nodes is the flat ring, the
// ring has no node groups, PriorityDepth 0 and 1 are one class, and the
// two-level schedule runs one class.
func effectiveKey(cfg engine.Config) tunedKey {
	k := tunedKey{cfg.Algorithm, cfg.Streams, cfg.GranularityBytes, cfg.SegmentBytes, cfg.GPUsPerNode, max(cfg.PriorityDepth, 1)}
	if k.algorithm == engine.Hierarchical && k.gpusPerNode == 1 {
		k.algorithm = engine.Ring
		k.priorityDepth = 1
	}
	if k.algorithm == engine.Ring {
		k.gpusPerNode = 0
	} else {
		k.priorityDepth = 1
	}
	return k
}

// The tuner's spaces enumerate each runnable engine configuration exactly
// once, and lose none that the plain Cartesian product of their declared
// values reached.
func TestSpaceDistinct(t *testing.T) {
	if got := autotune.DefaultSpace().Size(); got != 1400 {
		t.Errorf("DefaultSpace().Size() = %d, want 1400", got)
	}
	if got := LiveSpace().Size(); got != 144 {
		t.Errorf("LiveSpace().Size() = %d, want 144", got)
	}
	base := engine.DefaultConfig()
	for _, tc := range []struct {
		name  string
		space autotune.Space
		// every accepted depth, 0 and 1 not merged
		oldDepths []int
	}{
		{"default", autotune.DefaultSpace(), []int{0, 1, 2}},
		{"live", LiveSpace(), []int{0, 1, 2}},
	} {
		for _, world := range []int{4, 8} {
			space := tc.space.ForWorld(world)
			net, err := transport.NewMem(world, space.Streams[len(space.Streams)-1]+1)
			if err != nil {
				t.Fatal(err)
			}
			ep, _ := net.Endpoint(0)
			comm := mpi.NewWorld(ep)
			got := make(map[tunedKey]autotune.Params)
			for _, p := range space.Points() {
				cfg := ApplyParams(base, p)
				if _, err := engine.NewEngine(comm, cfg); err != nil {
					t.Errorf("%s@%d: point %v does not run: %v", tc.name, world, p, err)
				}
				k := effectiveKey(cfg)
				if q, dup := got[k]; dup {
					t.Errorf("%s@%d: %v and %v run the same configuration %+v", tc.name, world, q, p, k)
				}
				got[k] = p
			}
			_ = net.Close()

			want := make(map[tunedKey]bool)
			s := tc.space
			for _, alg := range s.Algorithms {
				for _, st := range s.Streams {
					for _, g := range s.Granularities {
						for _, seg := range s.Segments {
							for _, ng := range s.NodeGroups {
								for _, d := range tc.oldDepths {
									cfg := ApplyParams(base, autotune.Params{Streams: st, GranularityBytes: g,
										Algorithm: alg, SegmentBytes: seg, GPUsPerNode: ng, PriorityDepth: d})
									if cfg.Algorithm == engine.Hierarchical && world%cfg.GPUsPerNode != 0 {
										continue // cannot form the nodes
									}
									want[effectiveKey(cfg)] = true
								}
							}
						}
					}
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s@%d: %d distinct configurations, the product reaches %d", tc.name, world, len(got), len(want))
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("%s@%d: configuration %+v lost", tc.name, world, k)
				}
			}
		}
	}
}

func TestApplyParams(t *testing.T) {
	base := engine.DefaultConfig()
	base.MinSyncBytes = 123
	got := ApplyParams(base, autotune.Params{Streams: 7, GranularityBytes: 1 << 20, Algorithm: autotune.AlgoTree})
	if got.Streams != 7 || got.GranularityBytes != 1<<20 || got.Algorithm != engine.Hierarchical {
		t.Errorf("ApplyParams = %+v", got)
	}
	if got.MinSyncBytes != 0 {
		t.Error("MinSyncBytes must reset with the new granularity")
	}
	got = ApplyParams(base, autotune.Params{Streams: 2, GranularityBytes: 4096, Algorithm: autotune.AlgoRing})
	if got.Algorithm != engine.Ring {
		t.Error("ring not applied")
	}
}
