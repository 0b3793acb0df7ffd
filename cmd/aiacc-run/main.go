// Command aiacc-run executes a live distributed training run: it spawns N
// data-parallel workers (goroutines over the in-process transport, or real
// TCP sockets on the loopback), trains a model through the AIACC engine —
// decentralized gradient synchronization, gradient packing and multi-streamed
// concurrent ring all-reduce moving real bytes — and reports throughput and
// communication statistics.
//
// Usage:
//
//	aiacc-run -workers 4 -model tinymlp -steps 50
//	aiacc-run -workers 2 -model resnet50 -transport tcp -streams 8 -fp16
//	aiacc-run -workers 3 -multiproc                 # real OS processes over TCP
//	aiacc-run -workers 4 -multiproc -transport shm  # processes over shared memory
package main

import (
	"flag"
	"fmt"
	stdnet "net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"aiacc/baseline"
	"aiacc/compress"
	"aiacc/engine"
	"aiacc/metrics"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/trace"
	"aiacc/train"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aiacc-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workers     = flag.Int("workers", 4, "number of data-parallel workers")
		modelName   = flag.String("model", "tinymlp", "model to train (tinymlp trains for real; zoo models use synthetic gradients)")
		engineKind  = flag.String("engine", "aiacc", "communication engine: aiacc | ps (parameter server baseline)")
		steps       = flag.Int("steps", 30, "training iterations")
		streams     = flag.Int("streams", 4, "concurrent communication streams")
		granularity = flag.Int64("granularity", 1<<20, "all-reduce unit size in bytes")
		segBytes    = flag.Int64("segment-bytes", 0, "ring wire-pipelining segment size in bytes (0 = collective default)")
		prioDepth   = flag.Int("priority-depth", 0, "priority setting, ring only: 0 and 1 mean one class (FIFO per stream), 2 one class per priority with preemption")
		trans       = flag.String("transport", "mem", "transport: mem | tcp | shm (shared-memory rings; with -multiproc, true cross-process shared memory)")
		opTimeout   = flag.Duration("op-timeout", 0, "bound every blocking transport send/recv; a stuck operation fails with a timeout instead of hanging (0 = unbounded)")
		heartbeat   = flag.Duration("heartbeat", 0, "TCP liveness probe interval; a peer silent for 4 intervals is declared failed (0 = off)")
		coordinator = flag.String("coordinator", "decentralized", "readiness coordinator: decentralized | master")
		algorithm   = flag.String("algorithm", "ring", "all-reduce algorithm: ring | hierarchical")
		perNode     = flag.Int("gpus-per-node", 2, "workers per simulated node (hierarchical algorithm)")
		fp16        = flag.Bool("fp16", false, "compress gradients to fp16 on the wire")
		nanCheck    = flag.Bool("nan-check", false, "scan pushed gradients for non-finite values")
		autotune0   = flag.Bool("autotune", false, "run the live warm-up auto-tuner before training")
		tuneBudget  = flag.Int("tune-budget", 12, "warm-up tuning budget in training iterations")
		traceOut    = flag.String("trace", "", "write rank 0's engine+transport timeline to this file (chrome://tracing JSON)")
		traceMax    = flag.Int("trace-max-events", 0, "cap the trace to the most recent N events (0 = unbounded)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9090); /metrics for text, /metrics/vars for JSON")
		multiproc   = flag.Bool("multiproc", false, "run each worker as its own OS process (TCP sockets or, with -transport shm, a shared-memory region)")
		workerRank  = flag.Int("worker-rank", -1, "internal: this child process's rank")
		workerAddrs = flag.String("worker-addrs", "", "internal: comma-separated rendezvous addresses")
		shmFile     = flag.String("shm-file", "", "internal: shared-memory region path for -multiproc -transport shm")
	)
	flag.Parse()

	var recorder *trace.Recorder
	if *traceOut != "" {
		recorder = trace.NewRecorder(trace.WithMaxEvents(*traceMax))
	}
	// Serve metrics from the process that actually moves bytes: the
	// single-process run, or rank 0 of a multi-process launch (other ranks
	// would race for the same address).
	if *metricsAddr != "" && *workerRank <= 0 && !(*multiproc && *workerRank < 0) {
		addr, err := serveMetrics(*metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		fmt.Printf("metrics at http://%s/metrics (Prometheus text; /metrics/vars for JSON)\n", addr)
	}
	cfg := engine.DefaultConfig()
	cfg.Streams = *streams
	cfg.GranularityBytes = *granularity
	cfg.SegmentBytes = *segBytes
	cfg.PriorityDepth = *prioDepth
	cfg.MinSyncBytes = *granularity
	cfg.GPUsPerNode = *perNode
	cfg.DetectNaN = *nanCheck
	switch *coordinator {
	case "decentralized":
		cfg.Coordinator = engine.Decentralized
	case "master":
		cfg.Coordinator = engine.Master
	default:
		return fmt.Errorf("unknown coordinator %q", *coordinator)
	}
	switch *algorithm {
	case "ring":
		cfg.Algorithm = engine.Ring
	case "hierarchical":
		cfg.Algorithm = engine.Hierarchical
	default:
		return fmt.Errorf("unknown algorithm %q", *algorithm)
	}
	if *fp16 {
		cfg.Codec = compress.FP16{}
	}
	if *engineKind != "aiacc" && *engineKind != "ps" {
		return fmt.Errorf("unknown engine %q", *engineKind)
	}

	if *multiproc && *workerRank < 0 {
		return launchProcesses(*workers, *trans)
	}
	m0, err := model.ByName(*modelName)
	if err != nil {
		return err
	}
	var tcpOpts []transport.TCPOption
	if recorder != nil {
		tcpOpts = append(tcpOpts, transport.WithTrace(recorder))
	}
	if *opTimeout > 0 {
		tcpOpts = append(tcpOpts, transport.WithOpTimeout(*opTimeout))
	}
	if *heartbeat > 0 {
		tcpOpts = append(tcpOpts, transport.WithHeartbeat(*heartbeat))
	}
	if *workerRank >= 0 {
		// Child process: join the shared-memory region or the TCP mesh and
		// run one worker.
		var ep transport.Endpoint
		if *trans == "shm" {
			var shmOpts []shmnet.Option
			if *opTimeout > 0 {
				shmOpts = append(shmOpts, shmnet.WithOpTimeout(*opTimeout))
			}
			ep, err = shmnet.Attach(*shmFile, *workerRank, *workers, cfg.RequiredStreams(), shmOpts...)
		} else {
			addrs := strings.Split(*workerAddrs, ",")
			ep, err = transport.NewTCPWorker(*workerRank, cfg.RequiredStreams(), addrs,
				transport.WithTCPOptions(tcpOpts...))
		}
		if err != nil {
			return err
		}
		defer func() { _ = ep.Close() }()
		var mu sync.Mutex
		var st engine.Stats
		var loss float64
		if err := worker(*workerRank, ep, cfg, *engineKind, m0, *steps, false, 0, &mu, &st, &loss); err != nil {
			return err
		}
		if *workerRank == 0 {
			fmt.Printf("pid %d rank 0 done: %d iterations, %d units, final loss %.5f\n",
				os.Getpid(), st.Iterations, st.Units, loss)
		}
		return nil
	}

	transportStreams := cfg.RequiredStreams()
	if *autotune0 {
		sp := train.LiveSpace()
		if max := sp.Streams[len(sp.Streams)-1] + 1; max > transportStreams {
			transportStreams = max
		}
	}
	var net transport.Network
	switch *trans {
	case "mem":
		var memOpts []transport.MemOption
		if *opTimeout > 0 {
			memOpts = append(memOpts, transport.WithMemOpTimeout(*opTimeout))
		}
		net, err = transport.NewMem(*workers, transportStreams, memOpts...)
	case "tcp":
		net, err = transport.NewTCP(*workers, transportStreams, tcpOpts...)
	case "shm":
		var shmOpts []shmnet.Option
		if *opTimeout > 0 {
			shmOpts = append(shmOpts, shmnet.WithOpTimeout(*opTimeout))
		}
		net, err = shmnet.New(*workers, transportStreams, shmOpts...)
	default:
		return fmt.Errorf("unknown transport %q", *trans)
	}
	if err != nil {
		return err
	}
	defer func() { _ = net.Close() }()

	m := m0
	fmt.Printf("training %s on %d workers (%s transport, %d streams, %s units, %s sync, %s all-reduce)\n",
		m.Name, *workers, *trans, cfg.Streams, byteSize(cfg.GranularityBytes),
		cfg.Coordinator, cfg.Algorithm)
	fmt.Printf("model: %.1fM parameters, %d gradient tensors, %s gradient volume per iteration\n",
		float64(m.NumParams())/1e6, m.NumGradients(), byteSize(m.GradBytes()))

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, *workers)
	var statsMu sync.Mutex
	var finalStats engine.Stats
	var finalLoss float64
	for r := 0; r < *workers; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			cfgR := cfg
			if r == 0 && recorder != nil {
				cfgR.Trace = recorder
			}
			if err := worker(r, ep, cfgR, *engineKind, m, *steps, *autotune0, *tuneBudget, &statsMu, &finalStats, &finalLoss); err != nil {
				errc <- fmt.Errorf("worker %d: %w", r, err)
			}
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return err
	}
	if recorder != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := recorder.Export(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("engine timeline written to %s (open in chrome://tracing)\n", *traceOut)
	}
	elapsed := time.Since(start)
	fmt.Printf("\ncompleted %d steps in %v (%.1f steps/s)\n",
		*steps, elapsed.Round(time.Millisecond), float64(*steps)/elapsed.Seconds())
	fmt.Printf("engine stats (rank 0): %d iterations, %d sync rounds, %d all-reduce units, %s reduced\n",
		finalStats.Iterations, finalStats.SyncRounds, finalStats.Units, byteSize(finalStats.BytesReduced))
	if m.Name == "tinymlp" {
		fmt.Printf("final training loss: %.5f\n", finalLoss)
	}
	return nil
}

// worker runs one rank's training loop, optionally preceded by the live
// warm-up auto-tuner (§VI).
func worker(rank int, ep transport.Endpoint, cfg engine.Config, engineKind string, m model.Model, steps int,
	tune bool, tuneBudget int, mu *sync.Mutex, outStats *engine.Stats, outLoss *float64) error {
	var producer train.Producer
	if m.Name == "tinymlp" {
		mlp, err := train.NewMLP(1234, 784, 128, 10)
		if err != nil {
			return err
		}
		gen := makeBatchGen(rank)
		producer, err = train.NewMLPProducer(mlp, gen)
		if err != nil {
			return err
		}
	} else {
		producer = train.NewSyntheticProducer(m, rank)
	}
	opt, err := optimizer.NewSGD(optimizer.Const(0.01), 0.9, 0)
	if err != nil {
		return err
	}
	comm := mpi.NewWorld(ep)
	defer comm.Close()
	if tune {
		res, err := train.TuneLive(comm, cfg, train.LiveSpace(), tuneBudget, producer,
			func() optimizer.Optimizer { return opt }, 42)
		if err != nil {
			return fmt.Errorf("warm-up tuning: %w", err)
		}
		if rank == 0 {
			fmt.Printf("warm-up tuning (%d iterations, %d candidates): chose %v at %.2fms/iter\n",
				res.StepsDone, res.Trials, res.Best, res.BestCost*1e3)
		}
		cfg = train.ApplyParams(cfg, res.Best)
	}
	var tr *train.Trainer
	if engineKind == "ps" {
		psCfg := baseline.DefaultPSConfig()
		if psCfg.Streams > cfg.Streams {
			psCfg.Streams = cfg.Streams
		}
		eng, err := baseline.NewPSEngine(comm, psCfg)
		if err != nil {
			return err
		}
		tr, err = train.NewTrainerWithEngine(eng, producer, opt)
		if err != nil {
			return err
		}
	} else {
		var err error
		tr, err = train.NewTrainer(comm, cfg, producer, opt)
		if err != nil {
			return err
		}
	}
	defer func() { _ = tr.Close() }()

	var lastLoss float64
	for i := 0; i < steps; i++ {
		res, err := tr.Step()
		if err != nil {
			return err
		}
		lastLoss = res.Loss
		if rank == 0 && (res.Step%10 == 0 || res.Step == 1) {
			fmt.Printf("step %4d  loss %.5f  %v/step\n", res.Step, res.Loss, res.Elapsed.Round(time.Microsecond))
		}
	}
	if rank == 0 {
		mu.Lock()
		if ae, ok := tr.Engine().(*engine.Engine); ok {
			*outStats = ae.Stats()
		}
		*outLoss = lastLoss
		mu.Unlock()
	}
	return nil
}

// makeBatchGen returns a deterministic synthetic digit-like regression task
// sharded by rank.
func makeBatchGen(rank int) func(step int) ([][]float32, [][]float32) {
	return func(step int) ([][]float32, [][]float32) {
		const batch = 8
		ins := make([][]float32, batch)
		outs := make([][]float32, batch)
		for i := range ins {
			x := make([]float32, 784)
			label := (step*batch + i + rank) % 10
			for j := range x {
				// A separable synthetic pattern per label.
				if (j+label)%10 == 0 {
					x[j] = 1
				}
			}
			y := make([]float32, 10)
			y[label] = 1
			ins[i] = x
			outs[i] = y
		}
		return ins, outs
	}
}

// launchProcesses spawns one child process per worker and waits for all.
func launchProcesses(workers int, trans string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate executable: %w", err)
	}
	// Rendezvous: a shared-memory file for shm (first attacher initializes
	// the region, the rest verify its geometry), TCP addresses otherwise.
	// The children recompute RequiredStreams themselves; the parent only
	// needs the meeting point.
	var addrs []string
	var shmPath string
	if trans == "shm" {
		shmPath = filepath.Join(os.TempDir(), fmt.Sprintf("aiacc-run-%d.shm", os.Getpid()))
		defer func() { _ = os.Remove(shmPath) }()
		fmt.Printf("spawning %d worker processes over shared memory (%s)\n", workers, shmPath)
	} else {
		addrs, err = transport.FreeAddrs(workers)
		if err != nil {
			return err
		}
		fmt.Printf("spawning %d worker processes over TCP (%s ...)\n", workers, addrs[0])
	}
	// Forward every user flag except the orchestration ones.
	var passthrough []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "multiproc" || f.Name == "workers" {
			return
		}
		passthrough = append(passthrough, "-"+f.Name+"="+f.Value.String())
	})
	cmds := make([]*exec.Cmd, workers)
	for r := 0; r < workers; r++ {
		args := append([]string{
			"-worker-rank", fmt.Sprint(r),
			"-worker-addrs", strings.Join(addrs, ","),
			"-shm-file", shmPath,
			"-workers", fmt.Sprint(workers),
		}, passthrough...)
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start worker %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker process %d: %w", r, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Println("all worker processes completed")
	return nil
}

// serveMetrics binds addr and serves the process-wide metrics registry over
// HTTP for the rest of the process lifetime; it returns the bound address
// (useful with ":0").
func serveMetrics(addr string) (string, error) {
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.Handle("/metrics/", metrics.Handler())
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

func byteSize(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
