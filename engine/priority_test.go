package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aiacc/internal/leakcheck"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/chaos"
)

// priorityParam is one gradient of the skewed test profile: name, element
// count and forward layer index (the scheduling priority).
type priorityParam struct {
	name  string
	elems int
	layer int
}

// skewedProfile mimics a CTR-style model: one huge layer-0 embedding table
// that finishes backward last, plus small dense layers above it. Exactly the
// shape where priority scheduling matters — the embedding monopolizes the
// wire while every dense layer's gradient is needed sooner.
func skewedProfile() []priorityParam {
	return []priorityParam{
		{"embed.weight", 48 << 10, 0},
		{"dense1.weight", 1 << 10, 1},
		{"dense1.bias", 64, 1},
		{"dense2.weight", 512, 2},
		{"dense2.bias", 32, 2},
		{"head.weight", 128, 3},
	}
}

// runPriorityEngines runs fn on one engine per rank over an in-process
// network, all registered with the given prioritized profile, and tears
// everything down.
func runPriorityEngines(t *testing.T, size int, cfg Config, params []priorityParam,
	opts []transport.MemOption, fn func(e *Engine) error) {
	t.Helper()
	net, err := transport.NewMem(size, cfg.RequiredStreams(), opts...)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	defer func() { _ = net.Close() }()
	runEnginesOn(t, net, cfg, params, fn)
}

// runEnginesOn is runPriorityEngines over a given network, which the caller
// closes.
func runEnginesOn(t *testing.T, net transport.Network, cfg Config, params []priorityParam,
	fn func(e *Engine) error) {
	t.Helper()
	size := net.Size()
	engines := make([]*Engine, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("Endpoint(%d): %v", r, err)
		}
		eng, err := NewEngine(mpi.NewWorld(ep), cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, p := range params {
			if err := eng.RegisterWithPriority(p.name, p.elems, p.layer); err != nil {
				t.Fatalf("RegisterWithPriority: %v", err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		engines[r] = eng
	}
	defer func() {
		for _, e := range engines {
			_ = e.Close()
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, size)
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if err := fn(e); err != nil {
				errc <- fmt.Errorf("rank %d: %w", e.Rank(), err)
			}
		}(e)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// priorityGrads builds rank- and iteration-dependent gradients whose values
// exercise fp32 non-associativity (sums of sines do not commute bit-exactly
// under reassociation).
func priorityGrads(rank, iter int, params []priorityParam) map[string]*tensor.Tensor {
	grads := make(map[string]*tensor.Tensor, len(params))
	for _, p := range params {
		g := tensor.New(p.elems)
		for i := 0; i < p.elems; i++ {
			g.Set(i, float32(math.Sin(float64(rank+1)*0.7+float64(i)*1.3+float64(iter)*0.11)))
		}
		grads[p.name] = g
	}
	return grads
}

// runPriorityRounds pushes iters iterations of the profile (backward order:
// deepest layer first, embedding last) and returns every reduced value keyed
// by "iter/name".
func runPriorityRounds(t *testing.T, cfg Config, params []priorityParam, iters int) map[string][]float32 {
	t.Helper()
	var mu sync.Mutex
	out := make(map[string][]float32)
	runPriorityEngines(t, 2, cfg, params, nil, func(e *Engine) error {
		for iter := 0; iter < iters; iter++ {
			grads := priorityGrads(e.Rank(), iter, params)
			for i := len(params) - 1; i >= 0; i-- {
				if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
					return err
				}
			}
			if err := e.WaitIteration(); err != nil {
				return err
			}
			if e.Rank() == 0 {
				mu.Lock()
				for name, g := range grads {
					vals := make([]float32, g.Len())
					for i := range vals {
						vals[i] = g.At(i)
					}
					out[fmt.Sprintf("%d/%s", iter, name)] = vals
				}
				mu.Unlock()
			}
		}
		return nil
	})
	return out
}

// TestPrioritySchedBitIdentity is the acceptance property: for fp32, every
// PriorityDepth produces bit-identical reduced gradients to the one-class
// dispatcher (depth 0). Packing is canonical (priority, id) in every mode,
// so PriorityDepth changes only dispatch timing — never unit composition,
// never summation order within a unit.
func TestPrioritySchedBitIdentity(t *testing.T) {
	params := skewedProfile()
	base := DefaultConfig()
	base.Streams = 2
	base.GranularityBytes = 32 << 10 // many units per round
	base.SegmentBytes = 4 << 10      // many yield points per unit
	base.MinSyncBytes = 1            // sync eagerly: several rounds per iteration

	const iters = 3
	cfgOff := base
	cfgOff.PriorityDepth = 0
	want := runPriorityRounds(t, cfgOff, params, iters)

	for _, depth := range []int{1, 2} {
		cfg := base
		cfg.PriorityDepth = depth
		got := runPriorityRounds(t, cfg, params, iters)
		if len(got) != len(want) {
			t.Fatalf("depth %d: %d reduced tensors, want %d", depth, len(got), len(want))
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				t.Fatalf("depth %d: missing %s", depth, key)
			}
			for i := range w {
				if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
					t.Fatalf("depth %d: %s[%d] = %x, want %x — scheduled result not bit-identical",
						depth, key, i, math.Float32bits(g[i]), math.Float32bits(w[i]))
				}
			}
		}
	}
}

// TestPrioritySchedPreemption drives the preemption path under load: a slow
// modeled link stretches the embedding unit's transfer so the dense layers'
// units (pushed afterwards, agreed in later rounds) arrive while it is in
// flight and park it at a segment boundary. Asserts preemption actually
// happened and that preempted transfers resumed — under -race this also
// shakes the plex lane demux and yield-gate interleavings.
func TestPrioritySchedPreemption(t *testing.T) {
	params := skewedProfile()
	cfg := DefaultConfig()
	cfg.Streams = 1 // one lane: dense units must contend with the embedding
	cfg.PriorityDepth = 2
	cfg.GranularityBytes = 64 << 10
	cfg.SegmentBytes = 4 << 10
	cfg.MinSyncBytes = 1
	slow := []transport.MemOption{transport.WithModeledLink(netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.8,
		SingleStreamEff: 0.5,
		MaxUtilization:  0.96,
		BaseLatency:     50 * time.Microsecond,
	})}

	var preempts, resumed int64
	runPriorityEngines(t, 2, cfg, params, slow, func(e *Engine) error {
		for iter := 0; iter < 4; iter++ {
			grads := priorityGrads(e.Rank(), iter, params)
			// Odd iterations push in backward order (head first, embedding
			// last): the less urgent head/dense units start transferring in
			// early sync rounds and the huge layer-0 embedding — most urgent
			// for the next forward — lands later and preempts them. Even
			// iterations push forward order to exercise the non-preempting
			// direction too.
			if iter%2 == 0 {
				for i := 0; i < len(params); i++ {
					if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
						return err
					}
				}
			} else {
				for i := len(params) - 1; i >= 0; i-- {
					if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
						return err
					}
				}
			}
			if err := e.WaitIteration(); err != nil {
				return err
			}
		}
		if e.Rank() == 0 {
			preempts = e.met.preemptions.Value()
			resumed = e.met.resumedSegs.Value()
		}
		return nil
	})
	if preempts == 0 {
		t.Error("no preemptions recorded despite slow link and contending classes")
	}
	if resumed == 0 {
		t.Error("no resumed segments recorded: preempted units must finish from where they parked")
	}
	t.Logf("preemptions=%d resumed_segments=%d", preempts, resumed)
}

// TestChaosSoakPriorityKill kills a rank while the survivors' scheduler has
// units in flight (and, thanks to the slow link and eager sync, likely mid-
// preemption). Survivors must unwind with classified failures — through
// parked yield gates and the plex demux lanes — and leak neither goroutines
// nor pooled buffers: parked frames on lane queues must return to the pool.
func TestChaosSoakPriorityKill(t *testing.T) {
	base := leakcheck.Take()
	params := skewedProfile()
	cfg := DefaultConfig()
	cfg.Streams = 2
	cfg.PriorityDepth = 2
	cfg.GranularityBytes = 64 << 10
	cfg.SegmentBytes = 4 << 10
	cfg.MinSyncBytes = 1
	const (
		size   = 3
		victim = 2
	)
	inner, err := transport.NewMem(size, cfg.RequiredStreams(),
		transport.WithMemOpTimeout(2*time.Second), transport.WithBuffer(4),
		transport.WithModeledLink(netmodel.Link{
			Kind:            netmodel.TCP,
			CapacityGbps:    0.8,
			SingleStreamEff: 0.5,
			MaxUtilization:  0.96,
			BaseLatency:     50 * time.Microsecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(inner, chaos.NewPlan(47)) // no planned faults; we kill explicitly
	defer func() { _ = net.Close() }()

	engines := make([]*Engine, size)
	comms := make([]*mpi.Comm, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = mpi.NewWorld(ep)
		eng, err := NewEngine(comms[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range params {
			if err := eng.RegisterWithPriority(p.name, p.elems, p.layer); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		engines[r] = eng
	}

	// Every rank (victim included) pushes a full backward pass; the victim
	// dies while transfers are pacing over the slow link, so survivors are
	// parked in yield gates or blocked in lane receives when the wire dies.
	var wg sync.WaitGroup
	results := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := engines[r]
			grads := priorityGrads(r, 0, params)
			for i := len(params) - 1; i >= 0; i-- {
				if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
					results[r] = err
					return
				}
			}
			results[r] = e.WaitIteration()
		}(r)
	}
	time.Sleep(30 * time.Millisecond) // let transfers start pacing
	net.Kill(victim)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("survivors hung after rank %d died\n%s", victim, buf[:n])
	}

	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if err := results[r]; err != nil &&
			!transport.IsCommFailure(err) && !errors.Is(err, chaos.ErrKilled) && !errors.Is(err, ErrClosed) {
			t.Errorf("rank %d: unclassified failure: %v", r, err)
		}
	}

	for r, e := range engines {
		_ = e.Close()
		comms[r].Close()
	}
	_ = net.Close()
	if err := base.Goroutines(10 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Buffers(10 * time.Second); err != nil {
		t.Error(err)
	}
}

// livenessProfile has eight forward layers, so depth 8 gets eight classes,
// with sizes that give most units several segments per ring chunk.
func livenessProfile() []priorityParam {
	return []priorityParam{
		{"embed.weight", 24 << 10, 0},
		{"l1.weight", 4 << 10, 1},
		{"l2.weight", 8 << 10, 2},
		{"l3.weight", 1 << 10, 3},
		{"l4.weight", 12 << 10, 4},
		{"l5.weight", 512, 5},
		{"l6.weight", 6 << 10, 6},
		{"head.weight", 2 << 10, 7},
	}
}

// delayPlan is a seeded delay-only chaos plan: about half of the directed
// rank pairs get per-send latency with jitter on every stream.
func delayPlan(seed int64, size int) *chaos.Plan {
	rng := rand.New(rand.NewSource(seed))
	p := chaos.NewPlan(seed)
	for from := 0; from < size; from++ {
		for to := 0; to < size; to++ {
			if from != to && rng.Intn(2) == 0 {
				p.Delay(from, to, -1, time.Duration(rng.Intn(100))*time.Microsecond,
					time.Duration(1+rng.Intn(200))*time.Microsecond)
			}
		}
	}
	return p
}

// runLiveness runs two iterations of the liveness profile on 4 ranks under
// the seed's delay plan. Every rank pushes in its own seeded order with
// seeded pauses, so each agreement round — and with it each unit's dispatch
// time — differs per rank. Values are multiples of 1/8, whose sums and means
// are exact in any order, so every schedule must reproduce the same bits. It
// returns each rank's reduced values keyed "rank/iter/name".
func runLiveness(t *testing.T, cfg Config, seed int64) map[string][]float32 {
	t.Helper()
	const size, iters = 4, 2
	params := livenessProfile()
	inner, err := transport.NewMem(size, cfg.RequiredStreams())
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(inner, delayPlan(seed, size))
	defer func() { _ = net.Close() }()

	var mu sync.Mutex
	out := make(map[string][]float32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runEnginesOn(t, net, cfg, params, func(e *Engine) error {
			rng := rand.New(rand.NewSource(seed*31 + int64(e.Rank())))
			for iter := 0; iter < iters; iter++ {
				grads := make([]*tensor.Tensor, len(params))
				for p, prm := range params {
					g := tensor.New(prm.elems)
					for i := 0; i < prm.elems; i++ {
						g.Set(i, float32((e.Rank()*7+i*3+iter*5+p)%64-32)/8)
					}
					grads[p] = g
				}
				for _, p := range rng.Perm(len(params)) {
					if err := e.PushGradient(params[p].name, grads[p]); err != nil {
						return err
					}
					time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				}
				if err := e.WaitIteration(); err != nil {
					return err
				}
				mu.Lock()
				for p, g := range grads {
					out[fmt.Sprintf("%d/%d/%s", e.Rank(), iter, params[p].name)] = append([]float32(nil), g.Data()...)
				}
				mu.Unlock()
			}
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("seed %d, depth %d, streams %d: hung\n%s", seed, cfg.PriorityDepth, cfg.Streams, buf[:n])
	}
	return out
}

// TestPrioritySchedLiveness runs the preemptive depth on the 4-rank paced
// shape under delay-only chaos: every run must finish, and its fp32 results
// must be bit-identical to the one-class dispatcher's under the same seed.
func TestPrioritySchedLiveness(t *testing.T) {
	base := DefaultConfig()
	base.GranularityBytes = 32 << 10
	base.SegmentBytes = 4 << 10
	base.MinSyncBytes = 1
	for _, streams := range []int{1, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			ref := base
			ref.Streams = streams
			want := runLiveness(t, ref, seed)
			cfg := ref
			cfg.PriorityDepth = 2
			got := runLiveness(t, cfg, seed)
			if len(got) != len(want) {
				t.Fatalf("seed %d, streams %d: %d reduced tensors, want %d", seed, streams, len(got), len(want))
			}
			for key, w := range want {
				g := got[key]
				for i := range w {
					if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
						t.Fatalf("seed %d, streams %d: %s[%d] = %v, want %v", seed, streams, key, i, g[i], w[i])
					}
				}
			}
		}
	}
}
