package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aiacc/collective"
	"aiacc/engine"
	"aiacc/internal/bufpool"
	"aiacc/internal/gradsync"
	"aiacc/internal/packing"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// prober measures single layers from outside, through their public
// functions, at the sizes the workload's engine drives them with. Every
// call is recorded as a span on the probe lane.
type prober struct {
	w     *workload
	data  *dataset
	rec   *recorder
	calls int           // a probe stops after this many calls
	limit time.Duration // or after this long, whichever comes first

	net   transport.Network
	eps   [ranks]transport.Endpoint
	comms [ranks]*mpi.Comm

	unitElems int // one granularity-sized all-reduce unit
	segElems  int // one wire segment of a ring step
}

// probeResult holds the medians the probes produce, by metric name.
type probeResult map[string]float64

func newProber(w *workload, data *dataset, rec *recorder, calls int, limit time.Duration) (*prober, error) {
	p := &prober{w: w, data: data, rec: rec, calls: calls, limit: limit}
	p.unitElems = int(w.cfg.GranularityBytes / 4)
	segBytes := w.cfg.SegmentBytes
	if segBytes == 0 {
		segBytes = collective.DefaultSegmentBytes
	}
	p.segElems = min(int(segBytes/4), (p.unitElems+ranks-1)/ranks)
	net, err := w.network(w.cfg.RequiredStreams())
	if err != nil {
		return nil, fmt.Errorf("probe network: %w", err)
	}
	p.net = net
	for r := 0; r < ranks; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			_ = net.Close()
			return nil, fmt.Errorf("probe endpoint %d: %w", r, err)
		}
		p.eps[r] = ep
		p.comms[r] = mpi.NewWorld(ep)
	}
	return p, nil
}

func (p *prober) close() { _ = p.net.Close() }

func (p *prober) values(n, rank int) []float32 {
	v := make([]float32, n)
	fillValues(v, p.data.seed, rank, 1<<20)
	return v
}

// sample calls fn until the budget is used and returns each call's
// duration in nanoseconds.
func (p *prober) sample(name string, fn func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < p.calls && (len(out) < 2 || time.Since(start) < p.limit) {
		out = append(out, float64(p.rec.timed(name, fn)))
	}
	return out
}

// run executes every probe. Probes run one after another on an otherwise
// idle process, each on the fresh probe network.
func (p *prober) run() (probeResult, error) {
	res := probeResult{}
	p.kernels(res)
	if err := p.transports(res); err != nil {
		return nil, err
	}
	if err := p.collectives(res); err != nil {
		return nil, err
	}
	if err := p.packing(res); err != nil {
		return nil, err
	}
	return res, nil
}

// kernels times the reduce kernel and the codec on one wire segment.
func (p *prober) kernels(res probeResult) {
	codec := p.w.cfg.Codec
	src := p.values(p.segElems, 0)
	dst := p.values(p.segElems, 1)
	reduce := median(p.sample("tensor.reduce", func() { _ = tensor.OpSum.ApplyParallel(dst, src) }))
	res["tensor.reduce_us"] = reduce / 1e3
	res["tensor.reduce_gbps"] = float64(4*p.segElems) / reduce

	wire := make([]byte, 0, codec.WireBytes(p.segElems))
	res["compress.encode_us"] = median(p.sample("compress.encode", func() { wire = codec.EncodeTo(wire[:0], src) })) / 1e3
	res["compress.decode_us"] = median(p.sample("compress.decode", func() { _ = codec.Decode(dst, wire) })) / 1e3
	res["compress.wire_ratio"] = float64(codec.WireBytes(p.segElems)) / float64(4*p.segElems)
}

// transports times segment-sized frames streamed one way and a 64-byte
// round trip, on the pair 0↔2 and on the neighbour pair 0↔1. On the
// two-tier network the first is TCP and the second shared memory; on a flat
// network both are the same kind of link.
func (p *prober) transports(res probeResult) error {
	frame := int(p.w.cfg.Codec.WireBytes(p.segElems))
	for _, pair := range []struct {
		prefix string
		peer   int
	}{{"transport.", 2}, {"transport.intra_", 1}} {
		oneway, err := p.oneway(pair.prefix+"oneway", 0, pair.peer, frame)
		if err != nil {
			return err
		}
		pingpong, err := p.pingpong(pair.prefix+"pingpong", 0, pair.peer)
		if err != nil {
			return err
		}
		res[pair.prefix+"oneway_us"] = median(oneway) / 1e3
		res[pair.prefix+"pingpong_us"] = median(pingpong) / 1e3
	}
	res["transport.oneway_mbps"] = float64(frame) / res["transport.oneway_us"]
	return nil
}

// Frame markers of the transport probes, in the first payload byte.
const (
	markMore = iota // more frames follow
	markAck         // acknowledge, then expect more
	markLast        // acknowledge and stop
)

const onewayBatch = 32

// oneway streams batches of frames from a to b through pooled buffers; b
// acknowledges each batch with one byte. A sample is the batch time per
// frame, so it carries 1/32 of a small-frame latency on top of the one-way
// cost.
func (p *prober) oneway(name string, a, b, frameBytes int) ([]float64, error) {
	peerErr := make(chan error, 1)
	go func() {
		for {
			buf, err := p.eps[b].Recv(a, 0)
			if err != nil {
				peerErr <- err
				return
			}
			mark := buf[0]
			bufpool.Put(buf)
			if mark == markMore {
				continue
			}
			if err := p.eps[b].Send(a, 0, []byte{mark}); err != nil || mark == markLast {
				peerErr <- err
				return
			}
		}
	}()
	batches := max(2, p.calls/8)
	var out []float64
	var sendErr error
	start := time.Now()
	for last := false; !last && sendErr == nil; {
		last = len(out) == batches-1 || (len(out) >= 1 && time.Since(start) >= p.limit)
		d := p.rec.timed(name, func() {
			for i := 0; i < onewayBatch && sendErr == nil; i++ {
				buf := bufpool.Get(frameBytes)
				buf[0] = markMore
				if i == onewayBatch-1 {
					buf[0] = markAck
					if last {
						buf[0] = markLast
					}
				}
				sendErr = p.eps[a].Send(b, 0, buf)
			}
			if sendErr == nil {
				var ack []byte
				ack, sendErr = p.eps[a].Recv(b, 0)
				bufpool.Put(ack)
			}
		})
		out = append(out, float64(d)/onewayBatch)
	}
	if sendErr != nil {
		return nil, fmt.Errorf("%s: %w", name, sendErr)
	}
	if err := <-peerErr; err != nil {
		return nil, fmt.Errorf("%s peer: %w", name, err)
	}
	return out, nil
}

// pingpong bounces a 64-byte frame between a and b.
func (p *prober) pingpong(name string, a, b int) ([]float64, error) {
	peerErr := make(chan error, 1)
	go func() {
		for {
			buf, err := p.eps[b].Recv(a, 0)
			if err != nil {
				peerErr <- err
				return
			}
			mark := buf[0]
			if err := p.eps[b].Send(a, 0, buf); err != nil || mark == markLast {
				peerErr <- err
				return
			}
		}
	}()
	var out []float64
	var err error
	start := time.Now()
	for last := false; !last && err == nil; {
		last = len(out) == p.calls-1 || (len(out) >= 1 && time.Since(start) >= p.limit)
		d := p.rec.timed(name, func() {
			buf := bufpool.Get(64)
			buf[0] = markMore
			if last {
				buf[0] = markLast
			}
			if err = p.eps[a].Send(b, 0, buf); err == nil {
				buf, err = p.eps[a].Recv(b, 0)
				bufpool.Put(buf)
			}
		})
		out = append(out, float64(d))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := <-peerErr; err != nil {
		return nil, fmt.Errorf("%s peer: %w", name, err)
	}
	return out, nil
}

// lockstep runs fn on all ranks at once, again and again until the budget is
// used. A sample is the time from the common start to the last rank's
// return. prep runs on each rank before every start, outside the sample.
func (p *prober) lockstep(name string, prep func(r int), fn func(r int) error) ([]float64, error) {
	var (
		bar   = newBarrier(ranks)
		stop  atomic.Bool
		ends  [ranks]time.Time
		errs  [ranks]error
		out   []float64
		wg    sync.WaitGroup
		begin = time.Now()
	)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				if prep != nil {
					prep(r)
				}
				t0 := bar.wait()
				if stop.Load() {
					return
				}
				if err := fn(r); err != nil && errs[r] == nil {
					errs[r] = err
				}
				ends[r] = time.Now()
				bar.wait()
				if r != 0 {
					continue
				}
				// The other ranks now wait for rank 0 at the next start, so
				// ends, errs and out are rank 0's alone here.
				end := ends[0]
				failed := false
				for i := range ends {
					if ends[i].After(end) {
						end = ends[i]
					}
					failed = failed || errs[i] != nil
				}
				p.rec.add(probeLane, span{name: name, parent: -1, start: p.rec.at(t0), end: p.rec.at(end)})
				out = append(out, float64(end.Sub(t0)))
				if failed || len(out) >= p.calls || (len(out) >= 2 && time.Since(begin) >= p.limit) {
					stop.Store(true)
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s rank %d: %w", name, r, err)
		}
	}
	return out, nil
}

// collectives times one granularity-sized unit through the workload's
// all-reduce, the readiness bit-vector AND, one agreement round and the
// communicator split of the two-level schedule.
func (p *prober) collectives(res probeResult) error {
	cfg := p.w.cfg
	var pristine, bufs [ranks][]float32
	for r := range bufs {
		pristine[r] = p.values(p.unitElems, r)
		bufs[r] = make([]float32, p.unitElems)
	}
	seg := collective.WithSegmentBytes(cfg.SegmentBytes)
	unit, err := p.lockstep("collective.allreduce_unit",
		func(r int) { copy(bufs[r], pristine[r]) },
		func(r int) error {
			if cfg.Algorithm == engine.Hierarchical {
				return collective.HierarchicalAllReduceCodec(p.comms[r], 0, cfg.GPUsPerNode, bufs[r], tensor.OpSum, cfg.Codec, seg)
			}
			return collective.RingAllReduceCodec(p.comms[r], 0, bufs[r], tensor.OpSum, cfg.Codec, seg)
		})
	if err != nil {
		return err
	}
	res["collective.allreduce_unit_us"] = median(unit) / 1e3
	res["collective.busbw_mbps"] = 2 * float64(ranks-1) / ranks * float64(4*p.unitElems) / median(unit) * 1e3

	n := len(p.data.grads)
	syncStream := cfg.Streams
	var words [ranks][]uint64
	andbits, err := p.lockstep("collective.andbits",
		func(r int) {
			words[r] = words[r][:0]
			for i := 0; i < (n+63)/64; i++ {
				words[r] = append(words[r], ^uint64(0))
			}
		},
		func(r int) error { return collective.AndAllReduceBits(p.comms[r], syncStream, words[r]) })
	if err != nil {
		return err
	}
	res["collective.andbits_us"] = median(andbits) / 1e3

	var coords [ranks]*gradsync.Decentralized
	var local [ranks]*gradsync.SyncVector
	for r := range coords {
		coords[r] = gradsync.NewDecentralized(p.comms[r], syncStream)
		local[r] = gradsync.NewSyncVector(n)
		for id := 0; id < n; id++ {
			if err := local[r].Set(id); err != nil {
				return err
			}
		}
	}
	agree, err := p.lockstep("gradsync.agree", nil, func(r int) error {
		_, err := coords[r].Agree(local[r])
		return err
	})
	if err != nil {
		return err
	}
	res["gradsync.agree_us"] = median(agree) / 1e3

	// Any world of four splits 2×2, so the split is timed on every workload;
	// only the hierarchical algorithm pays it, once per all-reduce call.
	var splitErr error
	split := p.sample("mpi.split", func() {
		if _, err := p.comms[0].NodeGroup(2); err != nil {
			splitErr = err
		}
		if _, err := p.comms[0].CrossNodeGroup(2); err != nil {
			splitErr = err
		}
	})
	if splitErr != nil {
		return fmt.Errorf("mpi.split: %w", splitErr)
	}
	res["mpi.split_us"] = median(split) / 1e3
	return nil
}

// packing times packing the full ready list and moving one unit in and out
// of its buffer.
func (p *prober) packing(res probeResult) error {
	grads := make([]gradsync.Gradient, len(p.data.grads))
	ids := make([]int, len(grads))
	for i, g := range p.data.grads {
		grads[i] = gradsync.Gradient{ID: i, Name: g.name, Elems: g.elems, Priority: g.layer}
		ids[i] = i
	}
	byID := func(id int) (gradsync.Gradient, error) { return grads[id], nil }
	packer, err := packing.NewPacker(p.w.cfg.GranularityBytes)
	if err != nil {
		return err
	}
	var units []packing.Unit
	var packErr error
	pack := p.sample("packing.pack", func() { units, packErr = packer.Pack(byID, ids, 0) })
	if packErr != nil {
		return fmt.Errorf("packing.pack: %w", packErr)
	}
	res["packing.pack_us"] = median(pack) / 1e3

	lookup := func(id int) ([]float32, error) { return p.data.pristine[0][id], nil }
	buf := make([]float32, units[0].Elems)
	var moveErr error
	move := p.sample("packing.gather_scatter", func() {
		if err := packing.Gather(units[0], lookup, buf); err != nil {
			moveErr = err
		}
		if err := packing.Scatter(units[0], lookup, buf); err != nil {
			moveErr = err
		}
	})
	if moveErr != nil {
		return fmt.Errorf("packing.gather_scatter: %w", moveErr)
	}
	res["packing.gather_scatter_us"] = median(move) / 1e3
	return nil
}

// unitCost prices one unit's all-reduce as if nothing overlapped, by layer
// and in microseconds: each reduce-scatter segment costs encode + one-way +
// decode + reduce, each all-gather segment one-way + decode. legs lists, per
// link kind, the fp32 bytes a rank moves through reduce-scatter-like and
// all-gather-like steps.
func unitCost(res probeResult, segBytes float64, legs []leg) (tensor, compress, transport float64) {
	for _, l := range legs {
		segs := l.bytes / segBytes
		if l.intra {
			transport += segs * res["transport.intra_oneway_us"]
		} else {
			transport += segs * res["transport.oneway_us"]
		}
		compress += segs * res["compress.decode_us"]
		if l.reduce {
			compress += segs * res["compress.encode_us"]
			tensor += segs * res["tensor.reduce_us"]
		}
	}
	return tensor, compress, transport
}

// leg is a run of ring steps over one kind of link.
type leg struct {
	bytes  float64 // fp32 bytes one rank sends
	intra  bool    // over the neighbour (shared-memory) link of a two-tier world
	reduce bool    // reduce-scatter-like: the receiver decodes and reduces
}

// unitLegs lists the steps of one unit's all-reduce. The flat ring runs n-1
// reduce-scatter and n-1 all-gather steps of unit/n. The two-level schedule
// of a 2×2 world reduce-scatters unit/2 inside the host, all-reduces the
// owned quarter across hosts and all-gathers unit/2 inside the host.
func unitLegs(w *workload, unitBytes float64) []leg {
	if w.cfg.Algorithm == engine.Hierarchical {
		return []leg{
			{bytes: unitBytes / 2, intra: true, reduce: true},
			{bytes: unitBytes / 4, reduce: true},
			{bytes: unitBytes / 4},
			{bytes: unitBytes / 2, intra: true},
		}
	}
	step := unitBytes / ranks * (ranks - 1)
	return []leg{{bytes: step, reduce: true}, {bytes: step}}
}
