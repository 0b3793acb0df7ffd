package fault

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"aiacc/engine"
	"aiacc/internal/leakcheck"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/chaos"
)

// The end-to-end crash/recovery contract (§IV): a rank chaos-killed
// mid-iteration over real TCP must surface a classified peer failure on the
// survivors (never a hang); restarting the dead rank from the checkpoint
// manager's latest save and elastic-joining it via SyncParameters must resume
// training bit-identically to a run that was never interrupted — fp32 training
// is deterministic here, so "recovered" is checkable to the last bit.

// recoveryParams defines the model: a couple of differently-sized tensors so
// the broadcast order and fusion paths are exercised.
var recoveryParams = map[string]int{"layer.a": 48, "layer.b": 16}

func sortedParamNames() []string {
	names := make([]string, 0, len(recoveryParams))
	for n := range recoveryParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func initRecoveryParams() map[string]*tensor.Tensor {
	params := make(map[string]*tensor.Tensor, len(recoveryParams))
	for name, elems := range recoveryParams {
		t := tensor.New(elems)
		h := 0
		for _, c := range name {
			h = h*31 + int(c)
		}
		d := t.Data()
		for i := range d {
			d[i] = float32((h+i)%9) * 0.25
		}
		params[name] = t
	}
	return params
}

// synthGrad produces the deterministic gradient of (name, rank, step): small
// eighth-integers, so the cross-rank sum is fp32-exact and the whole training
// trajectory depends only on (size, steps) — never on wall clock or ordering.
func synthGrad(name string, rank, step, elems int) *tensor.Tensor {
	g := tensor.New(elems)
	h := 0
	for _, c := range name {
		h = h*31 + int(c)
	}
	d := g.Data()
	for i := range d {
		d[i] = float32((step*7+rank*3+h+i)%11) * 0.125
	}
	return g
}

// runTrainingPhase runs size ranks over a chaos-wrapped real-TCP mesh. Each
// rank's start step comes from startOf (0 = train from scratch; the recovery
// phase restores and SyncParameters there), then it steps synchronous SGD
// until endStep. If crashStep is positive, `victim` chaos-kills itself instead
// of pushing that step. After each completed step, rank 0 calls save (if any).
// Returns each rank's error.
func runTrainingPhase(t *testing.T, size, endStep, crashStep, victim int,
	params []map[string]*tensor.Tensor,
	startOf func(rank int, eng *engine.Engine) (int, error),
	save func(step int) error) []error {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Streams = 2
	inner, err := transport.NewTCP(size, cfg.RequiredStreams(),
		transport.WithOpTimeout(2*time.Second),
		transport.WithHeartbeat(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(inner, chaos.NewPlan(41)) // faults injected via Kill below
	defer func() { _ = net.Close() }()

	names := sortedParamNames()
	engines := make([]*engine.Engine, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		c := mpi.NewWorld(ep)
		defer c.Close()
		eng, err := engine.NewEngine(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := eng.Register(name, recoveryParams[name]); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		engines[r] = eng
	}
	defer func() {
		for _, e := range engines {
			_ = e.Close()
		}
	}()

	results := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := engines[r]
			start, err := startOf(r, eng)
			if err != nil {
				results[r] = err
				return
			}
			grads := make(map[string]*tensor.Tensor, len(names))
			for step := start + 1; step <= endStep; step++ {
				if step == crashStep && r == victim {
					net.Kill(r) // the chaos event: this rank dies mid-iteration
					return
				}
				for _, name := range names {
					g := synthGrad(name, r, step, recoveryParams[name])
					if err := eng.PushGradient(name, g); err != nil {
						results[r] = err
						return
					}
					grads[name] = g
				}
				if err := eng.WaitIteration(); err != nil {
					results[r] = err
					return
				}
				// Plain SGD on the averaged gradients now sitting in `grads`.
				for _, name := range names {
					w := params[r][name].Data()
					g := grads[name].Data()
					for i := range w {
						w[i] -= 0.1 * g[i]
					}
				}
				if r == 0 && save != nil {
					if err := save(step); err != nil {
						results[r] = err
						return
					}
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("training phase hung\n%s", buf[:n])
	}
	return results
}

func TestCrashRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end TCP crash/recovery is not short")
	}
	const (
		size       = 3
		victim     = 1
		totalSteps = 8
		crashStep  = 5
	)
	base := leakcheck.Take()
	fromScratch := func(int, *engine.Engine) (int, error) { return 0, nil }

	// Reference run: same cluster, no faults.
	ref := make([]map[string]*tensor.Tensor, size)
	for r := range ref {
		ref[r] = initRecoveryParams()
	}
	for r, err := range runTrainingPhase(t, size, totalSteps, -1, -1, ref, fromScratch, nil) {
		if err != nil {
			t.Fatalf("reference run rank %d: %v", r, err)
		}
	}

	// Faulted run, phase 1: checkpoint every step; the victim dies at
	// crashStep before pushing, so no rank completes that step and the newest
	// checkpoint is crashStep-1.
	live := make([]map[string]*tensor.Tensor, size)
	for r := range live {
		live[r] = initRecoveryParams()
	}
	mgr, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	save := func(step int) error {
		return mgr.Save(Snapshot(step, live[0], map[string]string{"phase": "chaos"}))
	}
	phase1 := runTrainingPhase(t, size, totalSteps, crashStep, victim, live, fromScratch, save)
	for r, err := range phase1 {
		switch {
		case r == victim:
			if err != nil {
				t.Fatalf("victim returned %v, want clean self-kill", err)
			}
		case err == nil:
			t.Fatalf("rank %d: training succeeded despite rank %d's death", r, victim)
		case !transport.IsCommFailure(err):
			t.Fatalf("rank %d: unclassified failure: %v", r, err)
		}
	}
	// Ranks need not fail at the same step: the victim's death can abort a
	// survivor's still-in-flight iteration, so the newest checkpoint lands
	// somewhere strictly before the crash step. Recovery rewinds every rank to
	// it, which is why the exact landing point does not matter.
	ck, err := mgr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step <= 0 || ck.Step >= crashStep {
		t.Fatalf("latest checkpoint at step %d, want within [1, %d)", ck.Step, crashStep)
	}

	// Phase 2: the victim restarts from nothing (zeroed parameters, step 0).
	// Rank 0 restores the checkpoint, SyncParameters broadcasts state and step
	// to everyone, and training resumes to totalSteps.
	for _, tt := range live[victim] {
		d := tt.Data()
		for i := range d {
			d[i] = 0
		}
	}
	recover := func(rank int, eng *engine.Engine) (int, error) {
		local := 0
		if rank == 0 {
			ck, err := mgr.Latest()
			if err != nil {
				return 0, err
			}
			if err := ck.Restore(live[0]); err != nil {
				return 0, err
			}
			local = ck.Step
		}
		return SyncParameters(eng, live[rank], 0, local)
	}
	for r, err := range runTrainingPhase(t, size, totalSteps, -1, -1, live, recover, nil) {
		if err != nil {
			t.Fatalf("recovery run rank %d: %v", r, err)
		}
	}

	// Recovery must be invisible in the numbers: every rank's every parameter
	// bit-identical to the uninterrupted run.
	for r := 0; r < size; r++ {
		for _, name := range sortedParamNames() {
			want := ref[r][name].Data()
			got := live[r][name].Data()
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("rank %d %s[%d]: recovered %v (%#08x) != reference %v (%#08x)",
						r, name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
	if err := base.Goroutines(15 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Buffers(15 * time.Second); err != nil {
		t.Error(err)
	}
}
