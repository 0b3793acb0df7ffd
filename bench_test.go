// Benchmarks regenerating the paper's evaluation artifacts, one testing.B
// per table/figure, plus two profiling targets on the live communication
// path. Simulated experiments report a "samples/s" metric (the figure's
// y-axis); shape assertions live in the package test suites; full tuned
// tables come from `go run ./cmd/aiacc-bench`.
package aiacc_test

import (
	"fmt"
	"sync"
	"testing"

	"aiacc/autotune"
	"aiacc/cluster"
	"aiacc/collective"
	"aiacc/compress"
	"aiacc/engine"
	"aiacc/internal/bench"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

// simConfig builds a deployment on the paper's platform.
func simConfig(m model.Model, gpus int, kind cluster.EngineKind) cluster.Config {
	return cluster.Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      cluster.V100(),
		Model:    m,
		Engine:   cluster.EngineDefaults(kind),
	}
}

// benchSim runs one simulated deployment b.N times and reports throughput.
func benchSim(b *testing.B, cfg cluster.Config) {
	b.Helper()
	var res cluster.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = cluster.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Throughput, "samples/s")
	b.ReportMetric(res.NICUtilization*100, "nic%")
}

// BenchmarkTableIModels regenerates Table I's model characteristics.
func BenchmarkTableIModels(b *testing.B) {
	for _, name := range []string{"vgg16", "resnet50", "resnet101", "transformer", "bertlarge"} {
		b.Run(name, func(b *testing.B) {
			var params int64
			for i := 0; i < b.N; i++ {
				m, err := model.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				params = m.NumParams()
			}
			b.ReportMetric(float64(params)/1e6, "Mparams")
		})
	}
}

// BenchmarkFig2HorovodScaling regenerates Fig. 2's series.
func BenchmarkFig2HorovodScaling(b *testing.B) {
	for _, gpus := range []int{1, 8, 16, 24, 32} {
		b.Run(fmt.Sprintf("gpus=%d", gpus), func(b *testing.B) {
			benchSim(b, simConfig(model.ResNet50(), gpus, cluster.Horovod))
		})
	}
}

// BenchmarkFig9CV regenerates Fig. 9's CV grid.
func BenchmarkFig9CV(b *testing.B) {
	for _, m := range []model.Model{model.VGG16(), model.ResNet50(), model.ResNet101()} {
		for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.Horovod, cluster.PyTorchDDP, cluster.BytePS} {
			for _, gpus := range []int{8, 64, 256} {
				b.Run(fmt.Sprintf("%s/%s/gpus=%d", m.Name, kind, gpus), func(b *testing.B) {
					benchSim(b, simConfig(m, gpus, kind))
				})
			}
		}
	}
}

// BenchmarkFig10NLP regenerates Fig. 10's NLP grid.
func BenchmarkFig10NLP(b *testing.B) {
	for _, m := range []model.Model{model.TransformerBase(), model.BERTLarge()} {
		for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.Horovod, cluster.PyTorchDDP, cluster.BytePS} {
			for _, gpus := range []int{16, 128} {
				b.Run(fmt.Sprintf("%s/%s/gpus=%d", m.Name, kind, gpus), func(b *testing.B) {
					benchSim(b, simConfig(m, gpus, kind))
				})
			}
		}
	}
}

// BenchmarkFig11TensorFlow regenerates Fig. 11 (TensorFlow adapter).
func BenchmarkFig11TensorFlow(b *testing.B) {
	cal := cluster.DefaultCalibration()
	cal.FrameworkOverhead = 1.05
	for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.Horovod} {
		for _, gpus := range []int{32, 256} {
			b.Run(fmt.Sprintf("resnet50/%s/gpus=%d", kind, gpus), func(b *testing.B) {
				cfg := simConfig(model.ResNet50(), gpus, kind)
				cfg.Calibration = &cal
				benchSim(b, cfg)
			})
		}
	}
}

// BenchmarkFig12MXNet regenerates Fig. 12 (MXNet KVStore baseline).
func BenchmarkFig12MXNet(b *testing.B) {
	cal := cluster.DefaultCalibration()
	cal.FrameworkOverhead = 1.08
	for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.MXNetPS} {
		for _, gpus := range []int{32, 128} {
			b.Run(fmt.Sprintf("resnet50/%s/gpus=%d", kind, gpus), func(b *testing.B) {
				cfg := simConfig(model.ResNet50(), gpus, kind)
				cfg.Calibration = &cal
				benchSim(b, cfg)
			})
		}
	}
}

// BenchmarkFig13Hybrid regenerates Fig. 13 (hybrid data+model parallelism).
func BenchmarkFig13Hybrid(b *testing.B) {
	for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.MXNetPS} {
		for _, gpus := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/gpus=%d", kind, gpus), func(b *testing.B) {
				cfg := simConfig(model.ResNet50(), gpus, kind)
				cfg.ModelParallelShards = 2
				benchSim(b, cfg)
			})
		}
	}
}

// BenchmarkFig14BatchSize regenerates Fig. 14 (batch-size sweep).
func BenchmarkFig14BatchSize(b *testing.B) {
	for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.Horovod} {
		for _, batch := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("bertlarge/%s/batch=%d", kind, batch), func(b *testing.B) {
				cfg := simConfig(model.BERTLarge(), 16, kind)
				cfg.BatchPerGPU = batch
				benchSim(b, cfg)
			})
		}
	}
}

// BenchmarkFig15RDMA regenerates Fig. 15 (RDMA, 64 GPUs).
func BenchmarkFig15RDMA(b *testing.B) {
	for _, m := range []model.Model{model.ResNet50(), model.GPT2XL()} {
		for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.PyTorchDDP} {
			b.Run(fmt.Sprintf("%s/%s", m.Name, kind), func(b *testing.B) {
				cfg := simConfig(m, 64, kind)
				cfg.Topology = netmodel.V100RDMACluster(64)
				if kind == cluster.AIACC {
					cfg.Engine.Streams = 16
					cfg.Engine.WireBytesPerElem = 2
				}
				benchSim(b, cfg)
			})
		}
	}
}

// BenchmarkStreamUtilization regenerates the §III link-utilization
// measurement.
func BenchmarkStreamUtilization(b *testing.B) {
	for _, streams := range []int{1, 4, 8, 24} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			cfg := simConfig(model.VGG16(), 32, cluster.AIACC)
			cfg.Engine.Streams = streams
			benchSim(b, cfg)
		})
	}
}

// BenchmarkCTR regenerates the §VIII-C production CTR comparison.
func BenchmarkCTR(b *testing.B) {
	for _, kind := range []cluster.EngineKind{cluster.AIACC, cluster.Horovod} {
		b.Run(fmt.Sprintf("%s/gpus=128", kind), func(b *testing.B) {
			cfg := simConfig(model.CTR(), 128, kind)
			if kind == cluster.AIACC {
				cfg.Engine.Streams = 16
				cfg.Engine.WireBytesPerElem = 2
			}
			benchSim(b, cfg)
		})
	}
}

// BenchmarkDAWNBench regenerates the DAWNBench time-to-accuracy entry.
func BenchmarkDAWNBench(b *testing.B) {
	s := bench.NewSuite()
	s.TuneBudget = 20
	var tb bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = s.DAWNBench()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tb.Rows) == 0 {
		b.Fatal("no rows")
	}
}

// BenchmarkAutoTune measures the §VI meta-solver over the simulator.
func BenchmarkAutoTune(b *testing.B) {
	base := simConfig(model.ResNet50(), 64, cluster.AIACC)
	space := autotune.DefaultSpace().ForSimulator(base.Topology)
	eval := autotune.SimEvaluator(base)
	for i := 0; i < b.N; i++ {
		meta, err := autotune.NewMeta(autotune.DefaultEnsemble(space, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := meta.Tune(eval, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Live communication-path profiling targets ---
//
// The live numbers of record come from the repository benchmark
// (`bash benchmark/run.sh`); these two loops exist to be profiled
// (`-cpuprofile`) and to show allocs/op for the collective layer and for a
// whole engine iteration.

// BenchmarkRingAllReduceShm runs the 4-rank ring all-reduce over the
// shared-memory transport, under the fp32 and the fp16 codec. One persistent
// goroutine per rank loops b.N iterations — the ring is self-synchronizing
// (every step's receive depends on the peer's send, with FIFO matching per
// pair), so iteration i+1 cannot overtake iteration i and the harness adds
// no per-iteration allocations, making allocs/op reflect the collective
// layer's own steady state. Under fp16 every frame is at most half the
// default ring, so the ring encodes into reserved slots and reduces from
// lent frames (transport.Lender); fp32 frames of the largest size stream
// through the ring by copy.
func BenchmarkRingAllReduceShm(b *testing.B) {
	for _, codec := range []compress.Codec{compress.FP32{}, compress.FP16{}} {
		for _, elems := range []int{1 << 14, 1 << 16, 1 << 18} {
			b.Run(fmt.Sprintf("codec=%s/4ranks/%delems", codec.Name(), elems), func(b *testing.B) {
				benchRingAllReduceShm(b, codec, elems)
			})
		}
	}
}

func benchRingAllReduceShm(b *testing.B, codec compress.Codec, elems int) {
	net, err := shmnet.New(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	comms := make([]*mpi.Comm, 4)
	datas := make([][]float32, 4)
	for r := 0; r < 4; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			b.Fatal(err)
		}
		comms[r] = mpi.NewWorld(ep)
		defer comms[r].Close()
		datas[r] = make([]float32, elems)
		for i := range datas[r] {
			datas[r][i] = 0.001 + float32(i%1000)*0.001
		}
	}
	b.SetBytes(int64(elems) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				// Scaled by 1/4, so fp16 values stay bounded over b.N
				// iterations.
				if err := collective.RingAllReduceCodec(comms[r], 0, datas[r], tensor.OpSum, codec,
					collective.WithScale(0.25)); err != nil {
					b.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// BenchmarkEngineIterationTCP measures one full live engine iteration (sync
// + pack + multi-stream all-reduce) across 4 workers over real TCP loopback
// sockets — the end-to-end iteration cost a single-node multi-process
// deployment would pay. Each iteration reduces 1 MiB in four 256 KiB units:
// single-fragment slices of one tensor, or with frags=2 units that each
// merge two 128 KiB tensors, reduced in place over their pieces.
func BenchmarkEngineIterationTCP(b *testing.B) {
	for _, bc := range []struct{ streams, frags int }{{1, 1}, {4, 1}, {4, 2}} {
		name := fmt.Sprintf("streams=%d", bc.streams)
		if bc.frags > 1 {
			name += fmt.Sprintf(",frags=%d", bc.frags)
		}
		streams, tensors := bc.streams, 1
		if bc.frags > 1 {
			tensors = 4 * bc.frags
		}
		b.Run(name, func(b *testing.B) {
			cfg := engine.DefaultConfig()
			cfg.Streams = streams
			cfg.GranularityBytes = 256 << 10
			cfg.MinSyncBytes = 256 << 10
			const workers = 4
			net, err := transport.NewTCP(workers, cfg.RequiredStreams())
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = net.Close() }()
			engines := make([]*engine.Engine, workers)
			grads := make([][]*tensor.Tensor, workers)
			names := make([]string, tensors)
			for i := range names {
				names[i] = fmt.Sprintf("w%d", i)
			}
			for r := 0; r < workers; r++ {
				ep, err := net.Endpoint(r)
				if err != nil {
					b.Fatal(err)
				}
				e, err := engine.NewEngine(mpi.NewWorld(ep), cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, name := range names {
					if err := e.Register(name, 1<<18/tensors); err != nil {
						b.Fatal(err)
					}
					grads[r] = append(grads[r], tensor.Filled(1, 1<<18/tensors))
				}
				if err := e.Start(); err != nil {
					b.Fatal(err)
				}
				defer func() { _ = e.Close() }()
				engines[r] = e
			}
			b.SetBytes(1 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			// One persistent goroutine per worker; iterations are separated by
			// the engine's own collective agreement, so no outer barrier (or
			// its allocations) is needed per iteration.
			var wg sync.WaitGroup
			for r := 0; r < workers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						for j, name := range names {
							if err := engines[r].PushGradient(name, grads[r][j]); err != nil {
								b.Error(err)
								return
							}
						}
						if err := engines[r].WaitIteration(); err != nil {
							b.Error(err)
							return
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}
