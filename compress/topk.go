package compress

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"

	"aiacc/internal/wire"
	"aiacc/tensor"
)

// TopK is a sparsifying codec in the spirit of Deep Gradient Compression
// (paper reference [7]): only the k largest-magnitude elements travel on the
// wire as (index, value) pairs; the rest decode to zero. With Ratio=0.01 the
// wire volume drops ~50x on large tensors.
//
// Sparsification is lossy: unlike the fp16 codec it changes the reduction
// result, so it is exposed for experimentation (the paper treats gradient
// compression as an orthogonal technique, §X) and the engine's default
// remains dense. Callers wanting DGC semantics should accumulate the
// residual (input minus Decode(Encode(input))) locally across iterations.
type TopK struct {
	// Ratio is the fraction of elements kept, in (0, 1].
	Ratio float64
}

var _ Codec = TopK{}

// Name implements Codec.
func (t TopK) Name() string { return fmt.Sprintf("top%.3g", t.ratio()) }

func (t TopK) ratio() float64 {
	if t.Ratio <= 0 || t.Ratio > 1 {
		return 0.01
	}
	return t.Ratio
}

// keep returns the number of elements transmitted for n inputs (at least 1
// for non-empty input).
func (t TopK) keep(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(t.ratio() * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// magHeap is a min-heap over (|value|, index) pairs, keeping the k largest.
type magHeap struct {
	mags []float64
	idxs []int
}

func (h magHeap) Len() int           { return len(h.mags) }
func (h magHeap) Less(i, j int) bool { return h.mags[i] < h.mags[j] }
func (h magHeap) Swap(i, j int) {
	h.mags[i], h.mags[j] = h.mags[j], h.mags[i]
	h.idxs[i], h.idxs[j] = h.idxs[j], h.idxs[i]
}
func (h *magHeap) Push(x interface{}) { panic("unused") }
func (h *magHeap) Pop() interface{}   { panic("unused") }

// Encode implements Codec. Wire format: uint32 element count, uint32 kept
// count, then kept × (uint32 index, float32 value), indices ascending.
func (t TopK) Encode(src []float32) []byte { return t.EncodeTo(nil, src) }

// EncodeTo implements Codec. The top-k selection itself needs O(k) scratch
// per call; only the output bytes append to dst.
func (t TopK) EncodeTo(dst []byte, src []float32) []byte {
	k := t.keep(len(src))
	// Min-heap of size k over magnitudes: O(n log k), deterministic.
	h := magHeap{mags: make([]float64, 0, k), idxs: make([]int, 0, k)}
	for i, v := range src {
		m := math.Abs(float64(v))
		if len(h.mags) < k {
			h.mags = append(h.mags, m)
			h.idxs = append(h.idxs, i)
			if len(h.mags) == k {
				heap.Init(&h)
			}
			continue
		}
		if m > h.mags[0] {
			h.mags[0] = m
			h.idxs[0] = i
			heap.Fix(&h, 0)
		}
	}
	if len(h.mags) < k { // n < k never happens (keep clamps), defensive
		k = len(h.mags)
	}
	// Emit in ascending index order for cache-friendly scatter.
	selected := make([]bool, len(src))
	for _, i := range h.idxs {
		selected[i] = true
	}
	start := len(dst)
	dst = wire.Grow(dst, 8+8*k)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(src)))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(k))
	pos := start + 8
	for i, keep := range selected {
		if !keep {
			continue
		}
		binary.LittleEndian.PutUint32(dst[pos:], uint32(i))
		binary.LittleEndian.PutUint32(dst[pos+4:], math.Float32bits(src[i]))
		pos += 8
	}
	return dst[:pos]
}

// entries validates a payload for an n-element destination and returns its
// (index, value) entries. Indices must be strictly ascending, as EncodeTo
// emits them, and below n; checking that up front lets Decode and DecodeAdd
// reject a corrupt payload before they write anything.
func (t TopK) entries(n int, buf []byte) ([]byte, error) {
	if len(buf) < 8 {
		if len(buf) == 0 && n == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %d-byte top-k payload", ErrCorrupt, len(buf))
	}
	k := int(binary.LittleEndian.Uint32(buf[4:]))
	if got := int(binary.LittleEndian.Uint32(buf[0:])); got != n {
		return nil, fmt.Errorf("%w: payload for %d elements, dst %d", ErrCorrupt, got, n)
	}
	if len(buf) != 8+8*k {
		return nil, fmt.Errorf("%w: %d bytes for %d kept elements", ErrCorrupt, len(buf), k)
	}
	ents := buf[8:]
	prev := -1
	for e := 0; e < len(ents); e += 8 {
		idx := int(binary.LittleEndian.Uint32(ents[e:]))
		if idx <= prev || idx >= n {
			return nil, fmt.Errorf("%w: index %d after %d of %d", ErrCorrupt, idx, prev, n)
		}
		prev = idx
	}
	return ents, nil
}

// Decode implements Codec: dst is zeroed and the transmitted values are
// scattered back.
func (t TopK) Decode(dst []float32, buf []byte) error {
	ents, err := t.entries(len(dst), buf)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = 0
	}
	for e := 0; e < len(ents); e += 8 {
		dst[binary.LittleEndian.Uint32(ents[e:])] = math.Float32frombits(binary.LittleEndian.Uint32(ents[e+4:]))
	}
	return nil
}

// DecodeAdd implements Codec: the two-step form itself, a stretch of dst at
// a time through a stack scratch. The +0 every dropped element decodes to is
// added too (it turns a -0 in dst into +0), and the add is tensor.AddSlice
// because a sum of two NaNs keeps whichever operand that loop has first.
func (t TopK) DecodeAdd(dst []float32, buf []byte) error {
	ents, err := t.entries(len(dst), buf)
	if err != nil {
		return err
	}
	var tmp [256]float32
	for lo := 0; lo < len(dst); lo += len(tmp) {
		blk := tmp[:min(len(tmp), len(dst)-lo)]
		clear(blk)
		for len(ents) > 0 {
			idx := int(binary.LittleEndian.Uint32(ents)) - lo
			if idx >= len(blk) {
				break
			}
			blk[idx] = math.Float32frombits(binary.LittleEndian.Uint32(ents[4:]))
			ents = ents[8:]
		}
		tensor.AddSlice(dst[lo:lo+len(blk)], blk)
	}
	return nil
}

// WireBytes implements Codec.
func (t TopK) WireBytes(n int) int64 {
	if n == 0 {
		return 0
	}
	return int64(8 + 8*t.keep(n))
}

// Residual returns input - Decode(Encode(input)) element-wise: the part of
// the gradient dropped by sparsification, which DGC-style training
// accumulates into the next iteration's gradient.
func (t TopK) Residual(src []float32) ([]float32, error) {
	kept := make([]float32, len(src))
	if err := t.Decode(kept, t.Encode(src)); err != nil {
		return nil, err
	}
	res := make([]float32, len(src))
	for i := range src {
		res[i] = src[i] - kept[i]
	}
	return res, nil
}
