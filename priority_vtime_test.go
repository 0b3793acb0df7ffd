//go:build goexperiment.synctest

package aiacc_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"aiacc/engine"
	"aiacc/internal/vtime"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
)

// slowLink is the benchmark's sched_skew_slowlink link: 0.8 Gbps, half of it
// per stream, 50 µs latency.
var slowLink = netmodel.Link{
	Kind:            netmodel.TCP,
	CapacityGbps:    0.8,
	SingleStreamEff: 0.5,
	MaxUtilization:  0.96,
	BaseLatency:     50 * time.Microsecond,
}

// pacedGrad is one gradient of a paced backward pass, pushed at time at after
// the iteration starts. Its priority is its forward layer.
type pacedGrad struct {
	name  string
	elems int
	layer int
	at    time.Duration
}

// pacedProfile is one model's backward pass: its gradients in push order and
// the backward compute they are spread over.
type pacedProfile struct {
	name     string
	grads    []pacedGrad
	layers   int
	backward time.Duration
}

// zooProfile is a model-zoo model with every tensor div times smaller,
// pushed on the model's backward schedule stretched over backward.
func zooProfile(m model.Model, div int, backward time.Duration) pacedProfile {
	params := m.Params()
	p := pacedProfile{name: m.Name, layers: len(m.Layers), backward: backward}
	for _, ev := range m.BackwardSchedule() {
		fp := params[ev.Param]
		p.grads = append(p.grads, pacedGrad{fp.Name, max(1, fp.Elems/div), fp.Layer,
			time.Duration(ev.Frac * float64(backward))})
	}
	return p
}

// burstProfile pushes grads (listed in forward order) last layer first, in
// bursts of layersPerBurst layers, each burst after a further sleep: the
// benchmark's backward emulation.
func burstProfile(name string, grads []pacedGrad, layersPerBurst int, sleep time.Duration) pacedProfile {
	layers := grads[len(grads)-1].layer + 1
	p := pacedProfile{name: name, layers: layers}
	for i := len(grads) - 1; i >= 0; i-- {
		g := grads[i]
		g.at = time.Duration((layers-1-g.layer)/layersPerBurst+1) * sleep
		p.grads = append(p.grads, g)
		p.backward = g.at
	}
	return p
}

// ctrLikeProfile is the benchmark's ctr-like profile: 80 % of the volume in
// the layer-0 embedding, which backward produces last.
func ctrLikeProfile() pacedProfile {
	return burstProfile("ctr-like", []pacedGrad{
		{name: "embed.weight", elems: 768 << 10, layer: 0},
		{name: "dense1.weight", elems: 96 << 10, layer: 1},
		{name: "dense1.bias", elems: 1 << 10, layer: 1},
		{name: "dense2.weight", elems: 64 << 10, layer: 2},
		{name: "dense2.bias", elems: 512, layer: 2},
		{name: "head.weight", elems: 32 << 10, layer: 3},
	}, 1, 2*time.Millisecond)
}

// resnetLikeProfile is the benchmark's resnet-like profile at seed 1: 54
// layers of {conv weight, bn gamma, bn beta}, backward in 9 bursts.
func resnetLikeProfile() pacedProfile {
	const layers = 54
	order := rand.New(rand.NewPCG(1, 0x5e5e)).Perm(layers)
	grads := make([]pacedGrad, 0, 3*layers)
	for l := 0; l < layers; l++ {
		grads = append(grads,
			pacedGrad{name: fmt.Sprintf("l%02d.conv.weight", l), elems: 2<<10 + order[l]*(10<<10)/(layers-1), layer: l},
			pacedGrad{name: fmt.Sprintf("l%02d.bn.gamma", l), elems: 256, layer: l},
			pacedGrad{name: fmt.Sprintf("l%02d.bn.beta", l), elems: 256, layer: l})
	}
	return burstProfile("resnet-like", grads, 6, 250*time.Microsecond)
}

// pacedConfig is the swept engine configuration over the defaults.
func pacedConfig(streams int, segment, granularity int64, depth int, minSync int64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Streams = streams
	cfg.SegmentBytes = segment
	cfg.GranularityBytes = granularity
	cfg.PriorityDepth = depth
	cfg.MinSyncBytes = minSync
	return cfg
}

// runPaced runs prof on 4 ranks over slowLink for 4 iterations and returns
// the median iteration time and next-forward stall after the first
// iteration. The stall walks the next forward pass as the benchmark does: it
// may begin when the scheduled backward ends, layer l runs once layers
// 0..l-1 ran and rank 0 holds layer l's reduced gradients, and each layer
// computes for max(backward/layers/2, 100 µs).
func runPaced(t testing.TB, prof pacedProfile, cfg engine.Config) (iter, stall time.Duration) {
	t.Helper()
	const workers, iters = 4, 4
	net, err := transport.NewMem(workers, cfg.RequiredStreams(), transport.WithModeledLink(slowLink),
		transport.WithMemOpTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	index := make(map[string]int, len(prof.grads))
	for i, g := range prof.grads {
		index[g.name] = i
	}
	var (
		mu      sync.Mutex
		arrived = make([]time.Time, len(prof.grads))
	)
	engines := make([]*engine.Engine, workers)
	for r := range engines {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		comm := mpi.NewWorld(ep)
		defer comm.Close()
		c := cfg
		if r == 0 {
			c.OnGradient = func(name string) {
				mu.Lock()
				arrived[index[name]] = time.Now()
				mu.Unlock()
			}
		}
		eng, err := engine.NewEngine(comm, c)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = eng.Close() }()
		for _, g := range prof.grads {
			if err := eng.RegisterWithPriority(g.name, g.elems, g.layer); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		engines[r] = eng
	}
	share := max(prof.backward/time.Duration(prof.layers)/2, 100*time.Microsecond)
	iterTimes := make([]time.Duration, 0, iters)
	stalls := make([]time.Duration, 0, iters)
	layerDone := make([]time.Duration, prof.layers)
	for range iters {
		t0 := time.Now()
		ends := make([]time.Time, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for r, eng := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, g := range prof.grads {
					time.Sleep(time.Until(t0.Add(g.at)))
					if errs[r] = eng.PushGradient(g.name, tensor.Filled(1, g.elems)); errs[r] != nil {
						return
					}
				}
				errs[r] = eng.WaitIteration()
				ends[r] = time.Now()
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		end := slices.MaxFunc(ends, time.Time.Compare)
		iterTimes = append(iterTimes, end.Sub(t0))
		clear(layerDone)
		for i, g := range prof.grads {
			layerDone[g.layer] = max(layerDone[g.layer], arrived[i].Sub(t0))
		}
		at := prof.backward
		for _, done := range layerDone {
			at = max(at, done) + share
		}
		stalls = append(stalls, at-prof.backward-time.Duration(prof.layers)*share)
	}
	return medianAfterFirst(iterTimes), medianAfterFirst(stalls)
}

// medianAfterFirst drops the warm-up value and returns the median of the
// rest.
func medianAfterFirst(d []time.Duration) time.Duration {
	d = slices.Clone(d[1:])
	slices.Sort(d)
	return d[len(d)/2]
}

// pacedVTime runs prof in a fresh virtual-time bubble.
func pacedVTime[T testing.TB](t T, prof pacedProfile, cfg engine.Config) (iter, stall time.Duration) {
	vtime.Test(t, func(t T) { iter, stall = runPaced(t, prof, cfg) })
	return iter, stall
}

// TestVTimePriorityDepth pins the priority setting that the depth sweep kept
// (EXPERIMENTS.md "One priority setting"), on the zoo profiles whose runs
// virtual time reproduces to the nanosecond: 2 streams, 64 KiB segments,
// 256 KiB units, default MinSyncBytes. Against the one-class pool (depth 1),
// one class per priority with segment-boundary preemption (depth 2) must cut
// the next-forward stall and cost no iteration time.
func TestVTimePriorityDepth(t *testing.T) {
	profiles := []pacedProfile{
		zooProfile(model.ResNet50(), 64, 25*time.Millisecond),
		zooProfile(model.BERTLarge(), 1024, 30*time.Millisecond),
	}
	for _, prof := range profiles {
		var iter, stall [3]time.Duration // by depth
		for _, depth := range []int{1, 2} {
			cfg := pacedConfig(2, 64<<10, 256<<10, depth, 0)
			i1, s1 := pacedVTime(t, prof, cfg)
			i2, s2 := pacedVTime(t, prof, cfg)
			if i1 != i2 || s1 != s2 {
				t.Errorf("%s depth %d: iteration %v then %v, stall %v then %v, want identical virtual times",
					prof.name, depth, i1, i2, s1, s2)
			}
			iter[depth], stall[depth] = i1, s1
			t.Logf("%s depth %d: iteration %v, stall %v", prof.name, depth, i1, s1)
		}
		if stall[2] >= stall[1] {
			t.Errorf("%s: depth 2 stall %v, want below depth 1's %v", prof.name, stall[2], stall[1])
		}
		if iter[2] > iter[1] {
			t.Errorf("%s: depth 2 iteration %v, want at most depth 1's %v", prof.name, iter[2], iter[1])
		}
	}
}

// BenchmarkVTimePrioritySweep runs the priority-depth grid of EXPERIMENTS.md
// "One priority setting" once, whatever b.N, and logs one line per cell:
// profile, MinSyncBytes, streams, segment KiB, granularity KiB, depth, then
// the iteration time and stall in ms (-v prints them all; without it the
// testing package keeps ten per profile). Select profiles with a
// sub-benchmark pattern:
//
//	GOEXPERIMENT=synctest go test -run '^$' -bench 'VTimePrioritySweep/ctr$' -benchtime 1x -v .
func BenchmarkVTimePrioritySweep(b *testing.B) {
	profiles := []pacedProfile{
		ctrLikeProfile(),
		resnetLikeProfile(),
		zooProfile(model.ResNet50(), 64, 25*time.Millisecond),
		zooProfile(model.BERTLarge(), 1024, 30*time.Millisecond),
		zooProfile(model.CTR(), 512, 20*time.Millisecond),
	}
	for _, prof := range profiles {
		b.Run(prof.name, func(b *testing.B) {
			for _, minSync := range []int64{0, 1} {
				for _, streams := range []int{1, 2, 4, 8} {
					for _, segment := range []int64{64 << 10, 128 << 10, 512 << 10} {
						for _, gran := range []int64{256 << 10, 1 << 20, 4 << 20} {
							for _, depth := range []int{1, 2} {
								cfg := pacedConfig(streams, segment, gran, depth, minSync)
								iter, stall := pacedVTime(b, prof, cfg)
								b.Logf("cell %s %d %d %d %d %d %.6f %.6f", prof.name, minSync, streams,
									segment>>10, gran>>10, depth, ms(iter), ms(stall))
							}
						}
					}
				}
			}
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
