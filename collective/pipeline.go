package collective

import (
	"fmt"
	"sync"

	"aiacc/compress"
	"aiacc/internal/sendpool"
	"aiacc/tensor"
	"aiacc/transport"
)

// DefaultSegmentBytes is the wire-pipelining segment size (in fp32 data
// bytes, like GranularityBytes) used when the caller does not set one. Large
// enough that framing overhead stays negligible, small enough that several
// segments fit in a typical multi-MiB unit so codec and reduction work hides
// behind the wire. The auto-tuner searches this dimension (autotune.Space).
const DefaultSegmentBytes = 128 << 10

// options collects per-call collective options.
type options struct {
	segBytes int64
	yield    func()
	scale    float32 // 0: no scale
}

// Option configures a collective operation. It is a value, not the usual
// func(*options) closure: the ring collectives are called per tensor on the
// hot path, and folding closures over &options forces a heap allocation per
// call, while values fold on the stack.
type Option struct {
	segBytes int64
	yield    func()
	scale    float32
}

// WithSegmentBytes sets the wire-pipelining segment size in fp32 data bytes.
// Each ring step's chunk is split into ceil(chunkBytes/segBytes) segments
// that are double-buffered on the wire; a value at or above the chunk size
// disables intra-step pipelining (one segment per step, the pre-pipelining
// wire protocol). Non-positive values are ignored.
func WithSegmentBytes(n int64) Option { return Option{segBytes: n} }

// WithYield installs a cooperative preemption hook, invoked between wire
// segments (just before each blocking segment receive, in both ring phases).
// The hook may block — that is the point: the engine's priority scheduler
// parks a low-priority all-reduce here while a higher-priority unit claims
// the stream, and the parked operation resumes from its completed segments
// with no re-encode and no wasted wire bytes. The hook runs on the
// collective's calling goroutine with no pipeline locks held; at most
// sendpool.PipeDepth frames from this operation are in flight while parked.
func WithYield(f func()) Option { return Option{yield: f} }

// WithScale multiplies the reduced result by f — with f = 1/n, a sum becomes
// the mean. Every element is scaled exactly once, by the rank that owns it
// after the reduce-scatter, on the last reduce-scatter step while the
// segment is still in cache: 1/n of the data per rank instead of a
// full-buffer pass on every rank. Under a lossy codec the all-gather then
// carries the scaled values, so fp16 quantizes the mean, not the sum. The
// reduce-scatter hops still carry partial sums. Under fp32 the result is
// bit-identical to the unscaled operation followed by x *= f.
// AllGatherCodec reduces nothing and ignores it; HierarchicalAllReduceCodec
// applies it once, in its cross-node ring. 0 and 1 mean no scale.
func WithScale(f float32) Option { return Option{scale: f} }

func buildOptions(opts []Option) options {
	o := options{segBytes: DefaultSegmentBytes}
	for _, op := range opts {
		if op.segBytes > 0 {
			o.segBytes = op.segBytes
		}
		if op.yield != nil {
			o.yield = op.yield
		}
		if op.scale != 0 && op.scale != 1 {
			o.scale = op.scale
		}
	}
	return o
}

// numSegments returns how many wire segments a chunk of elems fp32 elements
// is split into at segBytes data bytes per segment. Every chunk — including
// an empty one — is at least one segment, so both sides of a ring step agree
// on the frame sequence from (chunk length, segment size) alone.
func numSegments(elems int, segBytes int64) int {
	segElems := int(segBytes / 4)
	if elems <= segElems || segElems < 1 {
		return 1
	}
	return (elems + segElems - 1) / segElems
}

// lossless is an optional codec capability: Decode(Encode(x)) restores x
// bit-for-bit. Lossless codecs let the all-gather skip the self-
// requantization pass that keeps all ranks bit-identical under lossy codecs.
type lossless interface{ Lossless() bool }

func codecLossless(c compress.Codec) bool {
	l, ok := c.(lossless)
	return ok && l.Lossless()
}

// segRing bundles the send-side resources of a ring collective — the
// segment-pipelined ring and the bit-vector AND ring alike: one pipelined
// sender (up to sendpool.PipeDepth frames in flight, all on one goroutine so
// per-(peer,stream) FIFO order is preserved) and a small free stack of owned
// wire buffers. A buffer from takeBuf is encoded into and sent, and its
// ownership transfers to the receiver; every fully-consumed received payload
// goes back through giveBuf as a future encode buffer. The steady-state ring
// circulates a fixed set of pool buffers and allocates nothing.
type segRing struct {
	pool     *sendpool.Pool
	pipe     *sendpool.Pipe
	out      int // outstanding sends (Sends minus Waits)
	nfree    int
	free     [sendpool.PipeDepth][]byte
	wireHint int
}

// beginSeg returns the ring by value so it stays on the caller's stack. Its
// sender is borrowed from c's pool. wireHint is the expected encoded segment
// size, used to draw buffers from the right pool size class.
func beginSeg(c Comm, wireHint int) segRing {
	pool := c.Senders()
	return segRing{pool: pool, pipe: pool.Get(), wireHint: wireHint}
}

// takeBuf returns an owned zero-length wire buffer ready for append-style
// encoding.
func (r *segRing) takeBuf() []byte {
	if r.nfree > 0 {
		r.nfree--
		b := r.free[r.nfree]
		r.free[r.nfree] = nil
		return b[:0]
	}
	return getWireCap(r.wireHint)
}

// giveBuf takes ownership of a fully-consumed received payload for reuse as
// a future encode buffer; beyond the double-buffer depth it goes back to the
// shared pool.
func (r *segRing) giveBuf(b []byte) {
	if b == nil {
		return
	}
	if r.nfree < len(r.free) {
		r.free[r.nfree] = b
		r.nfree++
		return
	}
	recycleWire(b)
}

// send dispatches one wire buffer, whose ownership transfers immediately.
// When the pipe is full it first waits for the oldest in-flight send, so the
// caller overlaps at most PipeDepth frames. On error the unsent buffer is
// reclaimed.
func (r *segRing) send(c Comm, to, stream int, buf []byte) error {
	if r.out == sendpool.PipeDepth {
		if err := r.wait(); err != nil {
			r.giveBuf(buf)
			return err
		}
	}
	r.pipe.Send(c, to, stream, buf)
	r.out++
	return nil
}

// wait blocks for the oldest in-flight send's result.
func (r *segRing) wait() error {
	err := r.pipe.Wait()
	r.out--
	return err
}

// idle reports whether no send is in flight, first collecting without
// blocking the results of the sends that have completed. The first failed
// one is returned as wait returns it.
func (r *segRing) idle() (bool, error) {
	for r.out > 0 {
		done, err := r.pipe.TryWait()
		if !done {
			return false, nil
		}
		r.out--
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// drain waits out every outstanding send and returns the first error.
func (r *segRing) drain() error {
	var first error
	for r.out > 0 {
		if err := r.wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// end releases the ring's resources on every exit path. A pipe returned
// with sends still in flight is drained in the background before pooling.
func (r *segRing) end() {
	r.pool.Put(r.pipe, r.out)
	r.out = 0
	for i := 0; i < r.nfree; i++ {
		recycleWire(r.free[i])
		r.free[i] = nil
	}
	r.nfree = 0
}

// ringPipeline is the per-operation state of a segment-pipelined ring
// operation: one or both of its phases, run by ring.
type ringPipeline struct {
	c          Comm
	stream     int
	next, prev int
	codec      compress.Codec
	segBytes   int64
	maxChunk   int // largest per-rank chunk, for slot sizing
	r          segRing
	scratch    []float32        // one segment of decode scratch (unfused reduce ops only)
	timed      bool             // this op records the sampled metrics (segTimed)
	yield      func()           // segment-boundary preemption hook (may be nil)
	scale      float32          // factor for the owned chunk (0: none)
	lend       transport.Lender // c's in-place frames, nil when it has none
}

// pause invokes the preemption hook, if any, at a segment boundary.
func (p *ringPipeline) pause() {
	if p.yield != nil {
		p.yield()
	}
}

// init fills in the per-operation pipeline state for a ring operation over
// dataLen elements. It is a method rather than a
// constructor so the pipeline stays a stack value on the hot path; the
// caller owns the send ring (p.r.end).
func (p *ringPipeline) init(c Comm, stream, dataLen int, codec compress.Codec, o options) {
	n := c.Size()
	rank := c.Rank()
	maxChunk := dataLen/n + 1
	p.c, p.stream = c, stream
	p.next, p.prev = (rank+1)%n, (rank-1+n)%n
	p.codec, p.segBytes, p.maxChunk = codec, o.segBytes, maxChunk
	p.yield, p.scale = o.yield, o.scale
	p.r = beginSeg(p.c, int(codec.WireBytes(p.segElems())))
	p.lend = nil
	if lc, ok := c.(lendingComm); ok {
		p.lend = lc.Lender()
	}
	p.timed = segTimed()
	mSegCount.Set(int64(numSegments(maxChunk, o.segBytes)))
}

// segElems bounds the elements in one wire segment. Segments are cut from
// fp32 chunks, so wire buffers and the decode scratch only need one
// segment's worth of capacity: chunkBounds never yields a segment larger
// than ceil(chunk/segs) ≤ segElems elements.
func (p *ringPipeline) segElems() int {
	if s := int(p.segBytes / 4); s >= 1 && s < p.maxChunk {
		return s
	}
	return p.maxChunk
}

// reduceScatter runs the n-1 reduce-scatter ring steps over data. Its
// postcondition is the phase contract the all-gather (and the two-level
// hierarchical schedule's inter phase) builds on: rank r ends holding the
// full reduction of chunk r. On step s a rank sends chunk r-1-s and reduces
// the incoming chunk r-2-s, so chunk k starts at rank k+1 and its last hop
// lands on rank k. That last hop, step n-2, is where the owner applies the
// pipeline's scale.
func (p *ringPipeline) reduceScatter(data window, op tensor.ReduceOp) error {
	n := p.c.Size()
	rank := p.c.Rank()
	phase := segStart(p.timed)
	if op != tensor.OpSum {
		fp := getF32(p.segElems())
		defer putF32(fp)
		p.scratch = *fp
	}
	for step := 0; step < n-1; step++ {
		sLo, sHi := chunkBounds(data.n, n, (rank-step-1+n)%n)
		rLo, rHi := chunkBounds(data.n, n, (rank-step-2+2*n)%n)
		var scale float32
		if step == n-2 {
			scale = p.scale
		}
		if err := p.reduceStep(data, sLo, sHi, rLo, rHi, op, scale); err != nil {
			return fmt.Errorf("ring reduce-scatter step %d: %w", step, err)
		}
	}
	obs(mPhaseRS, phase)
	return nil
}

// allGather circulates the fully reduced chunks, assuming the reduceScatter
// postcondition (rank r owns chunk r). With n > 2 ranks the payloads
// received on one step are the exact frames to forward on the next, so two
// slot sets alternate between "forward now" and "fill for the next step".
// Under a lossy codec the owner folds the codec's quantization into its own
// copy too, so all ranks finish bit-identical.
func (p *ringPipeline) allGather(data window) error {
	n := p.c.Size()
	rank := p.c.Rank()
	requant := !codecLossless(p.codec)
	phase := segStart(p.timed)
	var slots, spare *[][]byte
	if n > 2 {
		maxSegs := numSegments(p.maxChunk, p.segBytes)
		slots, spare = getSlots(maxSegs), getSlots(maxSegs)
		defer putSlots(slots)
		defer putSlots(spare)
	}
	for step := 0; step < n-1; step++ {
		sLo, sHi := chunkBounds(data.n, n, (rank-step+n)%n)
		rLo, rHi := chunkBounds(data.n, n, (rank-step-1+n)%n)
		var cur, nxt [][]byte
		if slots != nil {
			cur, nxt = *slots, *spare
		}
		if err := p.gatherStep(data, sLo, sHi, rLo, rHi, step > 0, step < n-2, requant, cur, nxt); err != nil {
			return fmt.Errorf("ring all-gather step %d: %w", step, err)
		}
		slots, spare = spare, slots
	}
	obs(mPhaseAG, phase)
	return nil
}

// recv blocks for the next payload from the upstream neighbour, charging the
// blocked time to the wire-wait counter. With borrow set the payload is
// lent in place when the transport can (lent reports it); either way the
// caller ends its use with done before the next recv.
func (p *ringPipeline) recv(borrow bool) (payload []byte, lent bool, err error) {
	t0 := segStart(p.timed)
	if borrow && p.lend != nil {
		payload, err = p.lend.Lend(p.prev, p.stream)
		lent = err == nil
	} else {
		payload, err = p.c.Recv(p.prev, p.stream)
	}
	wireObs(t0)
	return payload, lent, err
}

// done ends the use of a received payload: a lent one goes back to the
// transport, an owned one onto the free stack.
func (p *ringPipeline) done(payload []byte, lent bool) error {
	if lent {
		return p.lend.Release(p.prev, p.stream)
	}
	p.r.giveBuf(payload)
	return nil
}

// encodeSend encodes segment i of the chunk and hands it to the wire. When
// requant is set (lossy codec in the all-gather), the codec's quantization
// is folded back into the local copy too, so every rank — the chunk's origin
// included — ends the operation with bit-identical data.
//
// With no send in flight on the pipe, so that a frame written now cannot
// overtake one queued there, the segment is encoded straight into a ring
// slot the transport reserves; otherwise, or when it has none, into an
// owned buffer that the pipe sends.
func (p *ringPipeline) encodeSend(chunk window, segs, i int, requant bool) error {
	lo, hi := chunkBounds(chunk.n, segs, i)
	src := chunk.slice(lo, hi)
	if p.lend != nil {
		idle, err := p.r.idle()
		if err != nil {
			return err
		}
		if idle {
			if sent, err := p.encodeReserved(src, requant); sent || err != nil {
				return err
			}
		}
	}
	buf := p.r.takeBuf()
	t0 := segStart(p.timed)
	buf = encodeTo(p.codec, buf, src)
	segObs(mSegEncodeNs, t0)
	if p.timed {
		mChunkBytes.Observe(int64(len(buf)))
	}
	if requant {
		if err := decodeTo(p.codec, src, buf, false); err != nil {
			p.r.giveBuf(buf)
			return err
		}
	}
	return p.r.send(p.c, p.next, p.stream, buf)
}

// encodeReserved encodes src into a reserved slot of the next frame, reads
// the requantization back from the slot, and commits it. It reports false,
// with nothing sent, when the transport has no slot now or the encoding
// does not match the reserved length.
func (p *ringPipeline) encodeReserved(src window, requant bool) (bool, error) {
	n := int(p.codec.WireBytes(src.n))
	slot, err := p.lend.Reserve(p.next, p.stream, n)
	if slot == nil || err != nil {
		return false, err
	}
	t0 := segStart(p.timed)
	buf := encodeTo(p.codec, slot[:0], src)
	segObs(mSegEncodeNs, t0)
	if len(buf) != n {
		return false, p.lend.Commit(p.next, p.stream, false)
	}
	if p.timed {
		mChunkBytes.Observe(int64(n))
	}
	if requant {
		if err := decodeTo(p.codec, src, buf, false); err != nil {
			_ = p.lend.Commit(p.next, p.stream, false)
			return false, err
		}
	}
	return true, p.lend.Commit(p.next, p.stream, true)
}

// reduceStep runs one reduce-scatter ring step: the send chunk's segments
// are encoded and dispatched while the receive chunk's segments are decoded
// and reduced, double-buffered so that decode+reduce of segment i overlaps
// the wire transfer of segment i+1 and each encode overlaps the in-flight
// send. The prologue sends segment 0 before the first blocking receive — the
// standard deadlock-free ring formulation, now per segment.
//
// For OpSum the decode and the reduction are one pass (Codec.DecodeAdd,
// bit-identical to Decode + AddSlice) timed under mSegReduceNs; mSegDecodeNs
// then sees only the all-gather's decodes. The other ops decode into the
// scratch segment and reduce from it. A non-zero scale multiplies each
// reduced segment in the same timed section, while it is cache-hot.
func (p *ringPipeline) reduceStep(data window, sLo, sHi, rLo, rHi int, op tensor.ReduceOp, scale float32) error {
	send := data.slice(sLo, sHi)
	sendSegs := numSegments(send.n, p.segBytes)
	recvSegs := numSegments(rHi-rLo, p.segBytes)
	if err := p.encodeSend(send, sendSegs, 0, false); err != nil {
		return err
	}
	for i := 0; i < recvSegs; i++ {
		p.pause()
		payload, lent, err := p.recv(true)
		if err != nil {
			return err
		}
		// Hand the next segment to the wire before touching this payload:
		// the decode+reduce below then overlaps its transfer.
		if i+1 < sendSegs {
			if err := p.encodeSend(send, sendSegs, i+1, false); err != nil {
				_ = p.done(payload, lent)
				return err
			}
		}
		lo, hi := chunkBounds(rHi-rLo, recvSegs, i)
		dst := data.slice(rLo+lo, rLo+hi)
		t0 := segStart(p.timed)
		if op == tensor.OpSum {
			err = decodeTo(p.codec, dst, payload, true)
		} else {
			tmp := p.scratch[:hi-lo]
			if err = p.codec.Decode(tmp, payload); err == nil {
				segObsNext(mSegDecodeNs, &t0)
				err = applyFrom(op, dst, tmp)
			}
		}
		if err == nil && scale != 0 {
			scaleWindow(dst, scale)
		}
		segObs(mSegReduceNs, t0)
		if derr := p.done(payload, lent); err == nil {
			err = derr
		}
		if err != nil {
			return err
		}
	}
	// Neighbouring chunks differ by at most one element, so the send chunk
	// can carry one segment more than receives; flush any remainder.
	for j := recvSegs + 1; j < sendSegs; j++ {
		if err := p.encodeSend(send, sendSegs, j, false); err != nil {
			return err
		}
	}
	return p.r.drain()
}

// gatherStep runs one all-gather ring step. On step 0 the rank encodes its
// own reduced chunk (requantizing the local copy under a lossy codec); on
// later steps it forwards the wire payloads stored on the previous step
// verbatim — no decode→re-encode on the critical path and no per-hop
// re-quantization. Received payloads are decoded into data and, except on
// the final step, parked in next for the following step's forward.
func (p *ringPipeline) gatherStep(data window, sLo, sHi, rLo, rHi int, forward, keep, requant bool, slots, next [][]byte) error {
	sendSegs := numSegments(sHi-sLo, p.segBytes)
	recvSegs := numSegments(rHi-rLo, p.segBytes)
	// dispatch sends segment j: the stored payload when forwarding (its
	// ownership moves back to the wire), a fresh encode of the own chunk
	// otherwise.
	dispatch := func(j int) error {
		if forward {
			buf := slots[j]
			slots[j] = nil
			return p.r.send(p.c, p.next, p.stream, buf)
		}
		return p.encodeSend(data.slice(sLo, sHi), sendSegs, j, requant)
	}
	if err := dispatch(0); err != nil {
		return err
	}
	for i := 0; i < recvSegs; i++ {
		p.pause()
		payload, lent, err := p.recv(!keep)
		if err != nil {
			return err
		}
		if i+1 < sendSegs {
			if err := dispatch(i + 1); err != nil {
				_ = p.done(payload, lent)
				return err
			}
		}
		lo, hi := chunkBounds(rHi-rLo, recvSegs, i)
		t0 := segStart(p.timed)
		if err := decodeTo(p.codec, data.slice(rLo+lo, rLo+hi), payload, false); err != nil {
			_ = p.done(payload, lent)
			return err
		}
		segObs(mSegDecodeNs, t0)
		if keep {
			next[i] = payload
		} else if err := p.done(payload, lent); err != nil {
			return err
		}
	}
	for j := recvSegs + 1; j < sendSegs; j++ {
		if err := dispatch(j); err != nil {
			return err
		}
	}
	return p.r.drain()
}

// slotsPool recycles the all-gather forwarding slot slices (boxed to avoid a
// per-operation slice-header allocation).
var slotsPool = sync.Pool{New: func() any { return new([][]byte) }}

// getSlots returns a boxed all-nil slot slice of length exactly n.
func getSlots(n int) *[][]byte {
	sp := slotsPool.Get().(*[][]byte)
	if cap(*sp) < n {
		*sp = make([][]byte, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// putSlots recycles any payloads still parked in the slots (error paths) and
// pools the slice.
func putSlots(sp *[][]byte) {
	s := *sp
	for i := range s {
		if s[i] != nil {
			recycleWire(s[i])
			s[i] = nil
		}
	}
	slotsPool.Put(sp)
}
