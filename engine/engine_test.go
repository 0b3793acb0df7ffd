package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// runEngines builds a mem network sized for cfg, creates one engine per
// rank with the given parameter set, and runs fn per rank concurrently.
func runEngines(t *testing.T, size int, cfg Config, params map[string]int, fn func(e *Engine) error) {
	t.Helper()
	net, err := transport.NewMem(size, cfg.RequiredStreams())
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	defer func() { _ = net.Close() }()

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
		for name, elems := range params {
			if err := eng.Register(name, elems); err != nil {
				t.Fatalf("Register: %v", err)
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

func smallParams() map[string]int {
	return map[string]int{
		"fc1.weight": 300,
		"fc1.bias":   20,
		"fc2.weight": 150,
		"fc2.bias":   10,
	}
}

// oneIteration pushes rank-dependent gradients and verifies the averaged
// result on every rank.
func oneIteration(e *Engine, iter int) error {
	grads := make(map[string]*tensor.Tensor, 4)
	for name, elems := range smallParams() {
		g := tensor.New(elems)
		for i := 0; i < elems; i++ {
			g.Set(i, float32(e.Rank()+i+iter))
		}
		grads[name] = g
	}
	// Push in a rank-dependent order to exercise out-of-order production.
	names := []string{"fc2.bias", "fc1.weight", "fc2.weight", "fc1.bias"}
	for i := 0; i < len(names); i++ {
		name := names[(i+e.Rank())%len(names)]
		if err := e.PushGradient(name, grads[name]); err != nil {
			return err
		}
	}
	if err := e.WaitIteration(); err != nil {
		return err
	}
	// Average over ranks of (r + i + iter) = (n-1)/2 + i + iter.
	n := float64(e.Size())
	for name, g := range grads {
		for i := 0; i < g.Len(); i++ {
			want := (n-1)/2 + float64(i) + float64(iter)
			if math.Abs(float64(g.At(i))-want) > 1e-3 {
				return fmt.Errorf("%s[%d] = %v, want %v", name, i, g.At(i), want)
			}
		}
	}
	return nil
}

func TestEngineConfigMatrix(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		size int
	}{
		{name: "defaults-2", mut: func(c *Config) {}, size: 2},
		{name: "defaults-4", mut: func(c *Config) {}, size: 4},
		{name: "single-worker", mut: func(c *Config) {}, size: 1},
		{name: "one-stream", mut: func(c *Config) { c.Streams = 1 }, size: 3},
		{name: "many-streams", mut: func(c *Config) { c.Streams = 8 }, size: 2},
		{name: "tiny-granularity", mut: func(c *Config) { c.GranularityBytes = 64; c.MinSyncBytes = 64 }, size: 3},
		{name: "huge-granularity", mut: func(c *Config) { c.GranularityBytes = 1 << 26 }, size: 2},
		{name: "hierarchical", mut: func(c *Config) { c.Algorithm = Hierarchical; c.GPUsPerNode = 2 }, size: 4},
		{name: "master-coordinator", mut: func(c *Config) { c.Coordinator = Master }, size: 3},
		{name: "fp16", mut: func(c *Config) { c.Codec = compress.FP16{} }, size: 2},
		{name: "no-average", mut: func(c *Config) { c.Average = false }, size: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			runEngines(t, tc.size, cfg, smallParams(), func(e *Engine) error {
				if !e.Config().Average {
					// Just check the engine completes; sums verified in the
					// dedicated test below.
					g := tensor.Filled(1, 100)
					if err := e.PushGradient("fc1.weight", tensor.New(300)); err != nil {
						return err
					}
					_ = g
					for _, nm := range []string{"fc1.bias", "fc2.weight", "fc2.bias"} {
						p := smallParams()
						if err := e.PushGradient(nm, tensor.New(p[nm])); err != nil {
							return err
						}
					}
					return e.WaitIteration()
				}
				for iter := 0; iter < 3; iter++ {
					if err := oneIteration(e, iter); err != nil {
						return fmt.Errorf("iteration %d: %w", iter, err)
					}
				}
				return nil
			})
		})
	}
}

func TestEngineSumsWithoutAveraging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Average = false
	params := map[string]int{"w": 50}
	runEngines(t, 3, cfg, params, func(e *Engine) error {
		g := tensor.Filled(float32(e.Rank()+1), 50)
		if err := e.PushGradient("w", g); err != nil {
			return err
		}
		if err := e.WaitIteration(); err != nil {
			return err
		}
		for i := 0; i < g.Len(); i++ {
			if g.At(i) != 6 { // 1+2+3
				return fmt.Errorf("w[%d] = %v, want 6", i, g.At(i))
			}
		}
		return nil
	})
}

func TestEngineGradientCallback(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]map[string]int{} // rank -> name -> count
	cfg := DefaultConfig()
	cfg.GranularityBytes = 256 // force splits: fc1.weight spans 5 units
	cfg.MinSyncBytes = 256

	net, err := transport.NewMem(2, cfg.RequiredStreams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("rank%d", r)
		mu.Lock()
		calls[key] = map[string]int{}
		mu.Unlock()
		cfgR := cfg
		cfgR.OnGradient = func(name string) {
			mu.Lock()
			calls[key][name]++
			mu.Unlock()
		}
		eng, err := NewEngine(mpi.NewWorld(ep), cfgR)
		if err != nil {
			t.Fatal(err)
		}
		for name, elems := range smallParams() {
			if err := eng.Register(name, elems); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = eng.Close() }()
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if err := oneIteration(e, 0); err != nil {
				t.Errorf("%v", err)
			}
		}(eng)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for rank, m := range calls {
		for name := range smallParams() {
			if m[name] != 1 {
				t.Errorf("%s: callback for %s fired %d times, want 1", rank, name, m[name])
			}
		}
	}
}

func TestEngineNaNDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectNaN = true
	params := map[string]int{"w": 8}
	runEngines(t, 1, cfg, params, func(e *Engine) error {
		bad := tensor.New(8)
		bad.Set(5, float32(math.NaN()))
		err := e.PushGradient("w", bad)
		var nanErr *NaNError
		if !errors.As(err, &nanErr) {
			return fmt.Errorf("PushGradient NaN error = %v, want NaNError", err)
		}
		if nanErr.Name != "w" || nanErr.Index != 5 {
			return fmt.Errorf("NaNError = %+v", nanErr)
		}
		// A clean push still completes the iteration.
		if err := e.PushGradient("w", tensor.Filled(1, 8)); err != nil {
			return err
		}
		return e.WaitIteration()
	})
}

func TestEngineBroadcastParameters(t *testing.T) {
	cfg := DefaultConfig()
	runEngines(t, 4, cfg, map[string]int{"w": 16}, func(e *Engine) error {
		w := tensor.New(16)
		if e.Rank() == 0 {
			for i := 0; i < 16; i++ {
				w.Set(i, float32(i)*0.5)
			}
		}
		if err := e.Broadcast(w, 0); err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			if w.At(i) != float32(i)*0.5 {
				return fmt.Errorf("w[%d] = %v after broadcast", i, w.At(i))
			}
		}
		return nil
	})
}

func TestEngineStats(t *testing.T) {
	cfg := DefaultConfig()
	runEngines(t, 2, cfg, smallParams(), func(e *Engine) error {
		if err := oneIteration(e, 0); err != nil {
			return err
		}
		s := e.Stats()
		if s.Iterations != 1 {
			return fmt.Errorf("Iterations = %d, want 1", s.Iterations)
		}
		if s.Units == 0 || s.SyncRounds == 0 {
			return fmt.Errorf("stats not counted: %+v", s)
		}
		wantBytes := int64(480 * 4) // 300+20+150+10 elements
		if s.BytesReduced != wantBytes {
			return fmt.Errorf("BytesReduced = %d, want %d", s.BytesReduced, wantBytes)
		}
		return nil
	})
}

func TestEngineValidation(t *testing.T) {
	net, err := transport.NewMem(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	comm := mpi.NewWorld(ep)

	// The policy's rules are tabled once for the engine and the simulator
	// alike (cluster's TestPolicyValidation); these are the live-only ones.
	cfg := DefaultConfig()
	cfg.Codec = nil
	if _, err := NewEngine(comm, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil codec error = %v", err)
	}
	// A world of one cannot form nodes of eight.
	cfg = DefaultConfig()
	cfg.Algorithm = Hierarchical
	if _, err := NewEngine(comm, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("node group error = %v", err)
	}
	// Too few transport streams.
	cfg = DefaultConfig()
	cfg.Streams = 10
	if _, err := NewEngine(comm, cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("stream shortfall error = %v", err)
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	net, err := transport.NewMem(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	eng, err := NewEngine(mpi.NewWorld(ep), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-start calls.
	if err := eng.PushGradient("w", tensor.New(4)); !errors.Is(err, ErrNotStarted) {
		t.Errorf("pre-start push error = %v", err)
	}
	if err := eng.WaitIteration(); !errors.Is(err, ErrNotStarted) {
		t.Errorf("pre-start wait error = %v", err)
	}
	if err := eng.Broadcast(tensor.New(4), 0); !errors.Is(err, ErrNotStarted) {
		t.Errorf("pre-start broadcast error = %v", err)
	}
	// Start with nothing registered fails.
	if err := eng.Start(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty start error = %v", err)
	}
	// A fresh engine with one param starts fine.
	eng2, err := NewEngine(mpi.NewWorld(ep), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Register("w", 4); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Register("late", 4); !errors.Is(err, ErrStarted) {
		t.Errorf("post-start register error = %v", err)
	}
	if err := eng2.Start(); !errors.Is(err, ErrStarted) {
		t.Errorf("double start error = %v", err)
	}
	// Unknown and misshapen gradients.
	if err := eng2.PushGradient("nope", tensor.New(4)); err == nil {
		t.Error("unknown gradient must fail")
	}
	if err := eng2.PushGradient("w", tensor.New(7)); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("shape mismatch error = %v", err)
	}
	if err := eng2.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := eng2.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := eng2.PushGradient("w", tensor.New(4)); err == nil {
		t.Error("push after close must fail")
	}
}

func TestEngineOverTCP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Streams = 2
	const size = 2
	net, err := transport.NewTCP(size, cfg.RequiredStreams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(mpi.NewWorld(ep), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, elems := range smallParams() {
			if err := eng.Register(name, elems); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = eng.Close() }()
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if err := oneIteration(e, 0); err != nil {
				t.Errorf("rank %d: %v", e.Rank(), err)
			}
		}(eng)
	}
	wg.Wait()
}

// Concurrent pushers: gradients may be pushed from many goroutines, as
// happens when framework hooks fire from multiple backward threads.
func TestEngineConcurrentPushers(t *testing.T) {
	cfg := DefaultConfig()
	params := map[string]int{}
	for i := 0; i < 32; i++ {
		params[fmt.Sprintf("p%02d", i)] = 64
	}
	runEngines(t, 2, cfg, params, func(e *Engine) error {
		grads := make(map[string]*tensor.Tensor, len(params))
		var wg sync.WaitGroup
		errc := make(chan error, len(params))
		var mu sync.Mutex
		for name := range params {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				g := tensor.Filled(float32(e.Rank()), 64)
				mu.Lock()
				grads[name] = g
				mu.Unlock()
				if err := e.PushGradient(name, g); err != nil {
					errc <- err
				}
			}(name)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			return err
		}
		if err := e.WaitIteration(); err != nil {
			return err
		}
		for name, g := range grads {
			want := float32(e.Size()-1) / 2 / float32(e.Size()) * float32(e.Size())
			_ = want
			avg := float32(0)
			for r := 0; r < e.Size(); r++ {
				avg += float32(r)
			}
			avg /= float32(e.Size())
			for i := 0; i < g.Len(); i++ {
				if g.At(i) != avg {
					return fmt.Errorf("%s[%d] = %v, want %v", name, i, g.At(i), avg)
				}
			}
		}
		return nil
	})
}
