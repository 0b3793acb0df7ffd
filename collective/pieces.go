package collective

import (
	"fmt"

	"aiacc/compress"
	"aiacc/internal/wire"
	"aiacc/tensor"
)

// window is the element range [off, off+n) of the concatenation of pieces:
// the data a ring operation runs over, which may lie in several slices (an
// all-reduce unit's fragments, each in its own gradient tensor). Ring chunks,
// hierarchical blocks, shards and wire segments are all windows of the
// operation's window, cut by slice without allocating. A value type: it
// lives on the caller's stack.
type window struct {
	pieces [][]float32 // pieces[0] holds the first element, when n > 0
	off    int         // offset of the first element in pieces[0]
	n      int
}

// wholeWindow returns the window over all of pieces.
func wholeWindow(pieces [][]float32) window {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	return window{pieces: pieces, n: n}
}

// slice returns the sub-window [lo, hi) of w.
func (w window) slice(lo, hi int) window {
	ps, off := w.pieces, w.off+lo
	for len(ps) > 1 && off >= len(ps[0]) {
		off -= len(ps[0])
		ps = ps[1:]
	}
	return window{pieces: ps, off: off, n: hi - lo}
}

// next splits w into its first contiguous part, which ends at a piece
// boundary or at the window's end, and the rest. An empty window's part is
// empty.
func (w window) next() ([]float32, window) {
	if w.n == 0 {
		return nil, w
	}
	ps, off := w.pieces, w.off
	for off >= len(ps[0]) {
		off -= len(ps[0])
		ps = ps[1:]
	}
	k := min(w.n, len(ps[0])-off)
	return ps[0][off : off+k], window{pieces: ps[1:], n: w.n - k}
}

// contiguous reports whether w lies within one piece, so that its bytes
// need no splitting.
func (w window) contiguous() bool {
	return w.n == 0 || w.off+w.n <= len(w.pieces[0])
}

// encodeTo appends the encoding of w to dst, one EncodeTo per piece: by the
// Codec contract, the same bytes as encoding the concatenation.
func encodeTo(codec compress.Codec, dst []byte, w window) []byte {
	for w.n > 0 {
		var p []float32
		p, w = w.next()
		dst = codec.EncodeTo(dst, p)
	}
	return dst
}

// decodeTo decodes buf into w (accumulating into it with add), splitting the
// payload at each piece's wire size. A multi-piece window checks the total
// size first, so that a payload of the wrong size is rejected with w
// untouched, as Codec.DecodeAdd promises for one slice.
func decodeTo(codec compress.Codec, w window, buf []byte, add bool) error {
	if !w.contiguous() && codec.WireBytes(w.n) != int64(len(buf)) {
		return fmt.Errorf("%w: %d bytes for %d elements", compress.ErrCorrupt, len(buf), w.n)
	}
	for {
		p, rest := w.next()
		part := buf
		if rest.n > 0 {
			part = buf[:codec.WireBytes(len(p))]
		}
		var err error
		if add {
			err = codec.DecodeAdd(p, part)
		} else {
			err = codec.Decode(p, part)
		}
		if err != nil || rest.n == 0 {
			return err
		}
		w, buf = rest, buf[len(part):]
	}
}

// applyFrom reduces the contiguous src, of w.n elements, into w with op.
func applyFrom(op tensor.ReduceOp, w window, src []float32) error {
	for {
		p, rest := w.next()
		if err := op.Apply(p, src[:len(p)]); err != nil || rest.n == 0 {
			return err
		}
		w, src = rest, src[len(p):]
	}
}

// scaleWindow multiplies every element of w by f.
func scaleWindow(w window, f float32) {
	for w.n > 0 {
		var p []float32
		p, w = w.next()
		wire.ScaleFloat32s(p, f)
	}
}
