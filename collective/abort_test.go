package collective

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aiacc/compress"
	"aiacc/internal/leakcheck"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/chaos"
	"aiacc/transport/shmnet"
)

// runChaosRanks runs fn once per rank over a chaos-wrapped mem transport and
// returns each rank's error. A watchdog enforces hang-freedom: every rank
// must return within 15s of the last one starting, fault or no fault.
func runChaosRanks(t *testing.T, size, streams int, plan *chaos.Plan, fn func(c *mpi.Comm, rank int) error) []error {
	t.Helper()
	inner, err := transport.NewMem(size, streams,
		transport.WithMemOpTimeout(2*time.Second), transport.WithBuffer(4))
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(inner, plan)
	defer func() { _ = net.Close() }()
	results := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			c := mpi.NewWorld(ep)
			defer c.Close()
			results[r] = fn(c, r)
		}(r, ep)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("collective hung under fault\n%s", buf[:n])
	}
	return results
}

// assertUnwound checks the outcome of a collective whose plan crashed
// `victim`: the victim reports its own death, every survivor unwinds with a
// classified communication failure (never a hang, never an unclassified
// error), and no goroutine or pooled buffer leaks past teardown.
func assertUnwound(t *testing.T, results []error, victim int) {
	t.Helper()
	for r, err := range results {
		switch {
		case err == nil:
			t.Errorf("rank %d: collective succeeded despite rank %d's crash", r, victim)
		case r == victim:
			if !errors.Is(err, chaos.ErrKilled) && !transport.IsCommFailure(err) {
				t.Errorf("victim error unclassified: %v", err)
			}
		case !transport.IsCommFailure(err):
			t.Errorf("rank %d: unclassified failure: %v", r, err)
		}
	}
}

func checkLeaks(t *testing.T, base leakcheck.Snapshot) {
	t.Helper()
	if err := base.Goroutines(10 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Buffers(10 * time.Second); err != nil {
		t.Error(err)
	}
}

// Every collective variant must unwind — not hang — when a rank crashes on
// its first send. Run under -race in make ci.
func TestAbortRingPipelined(t *testing.T) {
	const victim = 2
	base := leakcheck.Take()
	results := runChaosRanks(t, 4, 1, chaos.NewPlan(1).CrashRank(victim, 0),
		func(c *mpi.Comm, rank int) error {
			data := make([]float32, 4096)
			for i := range data {
				data[i] = float32(rank)
			}
			return RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{})
		})
	assertUnwound(t, results, victim)
	checkLeaks(t, base)
}

func TestAbortRingReference(t *testing.T) {
	const victim = 1
	base := leakcheck.Take()
	results := runChaosRanks(t, 4, 1, chaos.NewPlan(2).CrashRank(victim, 0),
		func(c *mpi.Comm, rank int) error {
			data := make([]float32, 1024)
			return ringAllReduceReference(c, 0, data, tensor.OpSum, compress.FP32{})
		})
	assertUnwound(t, results, victim)
	checkLeaks(t, base)
}

func TestAbortHierarchical(t *testing.T) {
	// Rank 3 is a non-leader: its crash must propagate out of its node group,
	// through the leader ring, into the other node's members — the
	// cross-phase unwind path.
	const victim = 3
	base := leakcheck.Take()
	results := runChaosRanks(t, 4, 1, chaos.NewPlan(3).CrashRank(victim, 0),
		func(c *mpi.Comm, rank int) error {
			data := make([]float32, 2048)
			return HierarchicalAllReduceCodec(c, 0, 2, data, tensor.OpSum, compress.FP32{})
		})
	assertUnwound(t, results, victim)
	checkLeaks(t, base)
}

func TestAbortAndBits(t *testing.T) {
	const victim = 0
	base := leakcheck.Take()
	results := runChaosRanks(t, 4, 1, chaos.NewPlan(4).CrashRank(victim, 0),
		func(c *mpi.Comm, rank int) error {
			bits := []uint64{^uint64(0), ^uint64(0)}
			return AndAllReduceBits(c, 0, bits)
		})
	assertUnwound(t, results, victim)
	checkLeaks(t, base)
}

// Broadcast is rootward-asymmetric: ranks upstream of the victim may finish
// before the crash lands, so the contract is weaker — hang-freedom, at least
// one classified failure, and balanced pools.
func TestAbortBroadcast(t *testing.T) {
	const victim = 2
	base := leakcheck.Take()
	results := runChaosRanks(t, 4, 1, chaos.NewPlan(5).CrashRank(victim, 0),
		func(c *mpi.Comm, rank int) error {
			data := make([]float32, 512)
			return BroadcastCodec(c, 0, 0, data, compress.FP32{})
		})
	failures := 0
	for r, err := range results {
		if err == nil {
			continue
		}
		failures++
		if r != victim && !transport.IsCommFailure(err) {
			t.Errorf("rank %d: unclassified failure: %v", r, err)
		}
	}
	if failures == 0 {
		t.Error("no rank observed the crash")
	}
	checkLeaks(t, base)
}

// Each phase of the pipelined ring, run on its own, unwinds like the
// all-reduce.
func TestAbortReduceScatterAllGather(t *testing.T) {
	for i, phase := range []func(c *mpi.Comm, data []float32) error{
		func(c *mpi.Comm, data []float32) error {
			_, err := ReduceScatterCodec(c, 0, data, tensor.OpSum, compress.FP32{})
			return err
		},
		func(c *mpi.Comm, data []float32) error {
			return AllGatherCodec(c, 0, data, compress.FP32{})
		},
	} {
		const victim = 1
		base := leakcheck.Take()
		results := runChaosRanks(t, 4, 1, chaos.NewPlan(7+int64(i)).CrashRank(victim, 0),
			func(c *mpi.Comm, rank int) error {
				return phase(c, make([]float32, 4096))
			})
		assertUnwound(t, results, victim)
		checkLeaks(t, base)
	}
}

// A truncated frame must decode-fail on the receiver, which then aborts the
// whole ring rather than deadlocking ranks waiting on its forwarded segments.
func TestAbortOnTruncatedFrame(t *testing.T) {
	base := leakcheck.Take()
	results := runChaosRanks(t, 3, 1, chaos.NewPlan(6).TruncateFrame(0, 1, 0, 1, 3),
		func(c *mpi.Comm, rank int) error {
			data := make([]float32, 999)
			return RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{})
		})
	failures := 0
	for _, err := range results {
		if err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Error("truncated frame went unnoticed")
	}
	checkLeaks(t, base)
}

// soakSeeds returns how many random fault scenarios the soak covers per
// transport; `make chaos` runs the short count (≈20 seeds across the two
// transports).
func soakSeeds() int64 {
	if testing.Short() {
		return 10
	}
	return 30
}

// soakOnce runs one seeded scenario over the given wrapped network and
// enforces the chaos contract: with a non-lethal plan the collective must
// succeed with correct results on every rank; with a lethal plan every rank
// must still return promptly, any error must be a classified communication
// failure, and if any rank failed the survivors' pools and goroutines stay
// balanced.
func soakOnce(t *testing.T, seed int64, size int, net transport.Network, plan *chaos.Plan) {
	t.Helper()
	const elems = 1536
	var wg sync.WaitGroup
	results := make([]error, size)
	datas := make([][]float32, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		datas[r] = make([]float32, elems)
		for i := range datas[r] {
			datas[r][i] = float32(r + i%7)
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			c := mpi.NewWorld(ep)
			defer c.Close()
			results[r] = RingAllReduceCodec(c, 0, datas[r], tensor.OpSum, compress.FP32{})
		}(r, ep)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("seed %d: soak hung\n%s", seed, buf[:n])
	}
	for r, err := range results {
		if err == nil {
			continue
		}
		if !plan.Lethal() {
			t.Fatalf("seed %d (non-lethal %+v): rank %d failed: %v", seed, plan, r, err)
		}
		// A lethal fault may surface as a comm failure (crash, partition,
		// abort propagation) or as a local decode error on the rank that
		// received a truncated frame — both are classified; anything else
		// (e.g. a panic turned error, a validation error) is a bug.
		if !transport.IsCommFailure(err) && !errors.Is(err, chaos.ErrKilled) &&
			!errors.Is(err, ErrShortBuffer) && !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("seed %d: rank %d unclassified: %v", seed, r, err)
		}
	}
	// If everyone succeeded (fault hit an unused lane, or latency only), the
	// sums must be right — chaos must never silently corrupt results.
	allOK := true
	for _, err := range results {
		if err != nil {
			allOK = false
		}
	}
	if allOK {
		want := make([]float32, elems)
		for r := 0; r < size; r++ {
			for i := range want {
				want[i] += float32(r + i%7)
			}
		}
		for r := 0; r < size; r++ {
			for i := range want {
				if datas[r][i] != want[i] {
					t.Fatalf("seed %d: rank %d elem %d = %v, want %v", seed, r, i, datas[r][i], want[i])
				}
			}
		}
	}
}

// TestChaosSoakMem drives the pipelined ring all-reduce through a sweep of
// seeded random fault scenarios over the mem transport. Reproduce one seed
// with: go test -run 'TestChaosSoakMem/seed=K' ./collective/
func TestChaosSoakMem(t *testing.T) {
	const size = 4
	for seed := int64(0); seed < soakSeeds(); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := leakcheck.Take()
			plan := chaos.Randomized(seed, size, 1)
			inner, err := transport.NewMem(size, 1,
				transport.WithMemOpTimeout(time.Second), transport.WithBuffer(4))
			if err != nil {
				t.Fatal(err)
			}
			net := chaos.Wrap(inner, plan)
			soakOnce(t, seed, size, net, plan)
			_ = net.Close()
			checkLeaks(t, base)
		})
	}
}

// TestChaosSoakShm repeats the sweep over the shared-memory transport: the
// chaos decorator composes over shm rings exactly as over sockets, so kills
// must surface through the region's rank-state fan-out, partitions through
// receiver op deadlines, and corruptions through codec checksums. Reproduce
// one seed with: go test -run 'TestChaosSoakShm/seed=K' ./collective/
func TestChaosSoakShm(t *testing.T) {
	const size = 4
	for seed := int64(0); seed < soakSeeds(); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := leakcheck.Take()
			plan := chaos.Randomized(seed, size, 1)
			inner, err := shmnet.New(size, 1, shmnet.WithOpTimeout(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			net := chaos.Wrap(inner, plan)
			soakOnce(t, seed, size, net, plan)
			_ = net.Close()
			checkLeaks(t, base)
		})
	}
}

// TestChaosSoakTCP repeats the sweep over the real TCP data plane with
// heartbeats enabled, so crashes surface through socket death and liveness
// instead of the mem transport's in-process fan-out.
func TestChaosSoakTCP(t *testing.T) {
	const size = 3
	for seed := int64(0); seed < soakSeeds(); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := leakcheck.Take()
			plan := chaos.Randomized(seed, size, 1)
			inner, err := transport.NewTCP(size, 1,
				transport.WithOpTimeout(time.Second),
				transport.WithHeartbeat(25*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			net := chaos.Wrap(inner, plan)
			soakOnce(t, seed, size, net, plan)
			_ = net.Close()
			checkLeaks(t, base)
		})
	}
}
