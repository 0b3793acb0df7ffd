// Package wire holds the bulk kernels between host-order numeric slices and
// the little-endian byte layout used on the wire by every codec and
// collective in this repository.
//
// Plain layout conversions (PutFloat32s, Float32s, PutUint64s, Uint64s) have
// two implementations behind the same API:
//
//   - wire_unsafe.go: on little-endian architectures the typed slice is
//     reinterpreted as bytes (always viewing the *typed* slice as bytes, never
//     bytes as a typed slice, so no alignment requirements arise) and the
//     conversion collapses to a single memmove.
//   - wire_portable.go: a per-element encoding/binary loop, used on
//     big-endian targets or when building with the `purego` tag.
//
// The arithmetic kernels of the gradient path (EncodeHalf, DecodeHalf,
// DecodeHalfAdd, AddFloat32s, ScaleFloat32s — kernels.go) likewise pair one
// portable Go loop with one AVX/F16C assembly loop chosen by CPU capability.
//
// Both sides of each pair are exercised by the same test suite; the portable
// path is the reference semantics.
package wire

// Grow extends b by n bytes and returns the extended slice, reallocating only
// when capacity is insufficient. The new bytes are uninitialized garbage when
// taken from existing capacity; callers must overwrite all of them. It is the
// append-style growth primitive used by Codec.EncodeTo implementations.
func Grow(b []byte, n int) []byte {
	if n <= cap(b)-len(b) {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n)
	copy(nb, b)
	return nb
}
