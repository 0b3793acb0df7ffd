// Package compress provides gradient compression codecs. AIACC-Training uses
// a half-precision (fp16) wire representation of gradients to halve network
// traffic (§X); the reduction itself still happens in fp32 after decoding.
// A pass-through fp32 codec serves as the uncompressed baseline and makes
// compression an interface swap in the engine.
package compress

import (
	"errors"
	"fmt"

	"aiacc/internal/wire"
)

// ErrCorrupt indicates a payload whose size does not match the element count.
var ErrCorrupt = errors.New("compress: corrupt payload")

// Codec converts between fp32 gradient slices and wire bytes.
//
// Every codec is split-invariant: the encoding of a concatenation is the
// concatenation of the encodings, so WireBytes is additive, and decoding a
// payload split at WireBytes of the first part gives the whole's decode.
// The ring collectives rely on it to run over an all-reduce unit's
// fragments where they lie, one codec call per fragment, with the frames of
// a gathered copy.
type Codec interface {
	// Name identifies the codec.
	Name() string
	// Encode serializes src into a fresh buffer. It is equivalent to
	// EncodeTo(nil, src).
	Encode(src []float32) []byte
	// EncodeTo appends the encoding of src to dst and returns the extended
	// slice, reallocating only when dst lacks capacity — the allocation-free
	// hot-path variant of Encode. Like append, the result may alias dst.
	EncodeTo(dst []byte, src []float32) []byte
	// Decode parses buf into dst; len(dst) elements must be encoded in buf.
	Decode(dst []float32, buf []byte) error
	// DecodeAdd accumulates the len(dst) elements encoded in buf into dst.
	// The result is bit-identical to Decode into a scratch slice followed by
	// tensor.AddSlice(dst, scratch), but made in one pass over dst without
	// materializing the decoded segment — only the codec can do that for its
	// own format, which is why the reduce-scatter hop asks it rather than
	// composing the two. A payload Decode would reject is rejected with the
	// same error and dst untouched.
	DecodeAdd(dst []float32, buf []byte) error
	// WireBytes returns the encoded size of n elements.
	WireBytes(n int) int64
}

// FP32 is the identity codec: little-endian float32 on the wire.
type FP32 struct{}

var _ Codec = FP32{}

// Name implements Codec.
func (FP32) Name() string { return "fp32" }

// Encode implements Codec.
func (c FP32) Encode(src []float32) []byte { return c.EncodeTo(nil, src) }

// EncodeTo implements Codec: one bulk little-endian store.
func (FP32) EncodeTo(dst []byte, src []float32) []byte {
	n := len(dst)
	dst = wire.Grow(dst, 4*len(src))
	wire.PutFloat32s(dst[n:], src)
	return dst
}

// Decode implements Codec.
func (FP32) Decode(dst []float32, buf []byte) error {
	if len(buf) != 4*len(dst) {
		return fmt.Errorf("%w: %d bytes for %d elements", ErrCorrupt, len(buf), len(dst))
	}
	wire.Float32s(dst, buf)
	return nil
}

// DecodeAdd implements Codec: the add reads straight from the wire bytes.
func (FP32) DecodeAdd(dst []float32, buf []byte) error {
	if len(buf) != 4*len(dst) {
		return fmt.Errorf("%w: %d bytes for %d elements", ErrCorrupt, len(buf), len(dst))
	}
	wire.AddFloat32s(dst, buf)
	return nil
}

// WireBytes implements Codec.
func (FP32) WireBytes(n int) int64 { return int64(n) * 4 }

// Lossless reports that Decode(Encode(x)) restores x bit-for-bit. Consumers
// (the ring all-gather) use this capability marker to skip the self-
// requantization pass that keeps all ranks bit-identical under lossy codecs.
func (FP32) Lossless() bool { return true }

// FP16 encodes gradients as IEEE binary16, halving wire traffic at the cost
// of ~3 decimal digits of precision — acceptable for gradients, which are
// noisy by construction.
type FP16 struct{}

var _ Codec = FP16{}

// Name implements Codec.
func (FP16) Name() string { return "fp16" }

// Encode implements Codec.
func (c FP16) Encode(src []float32) []byte { return c.EncodeTo(nil, src) }

// EncodeTo implements Codec via the bulk binary16 kernel (F16C where the CPU
// has it, the tensor package's portable loop elsewhere).
func (FP16) EncodeTo(dst []byte, src []float32) []byte {
	n := len(dst)
	dst = wire.Grow(dst, 2*len(src))
	wire.EncodeHalf(dst[n:], src)
	return dst
}

// Decode implements Codec.
func (FP16) Decode(dst []float32, buf []byte) error {
	if len(buf) != 2*len(dst) {
		return fmt.Errorf("%w: %d bytes for %d elements", ErrCorrupt, len(buf), len(dst))
	}
	wire.DecodeHalf(dst, buf)
	return nil
}

// DecodeAdd implements Codec: convert and accumulate in one pass.
func (FP16) DecodeAdd(dst []float32, buf []byte) error {
	if len(buf) != 2*len(dst) {
		return fmt.Errorf("%w: %d bytes for %d elements", ErrCorrupt, len(buf), len(dst))
	}
	wire.DecodeHalfAdd(dst, buf)
	return nil
}

// WireBytes implements Codec.
func (FP16) WireBytes(n int) int64 { return int64(n) * 2 }
