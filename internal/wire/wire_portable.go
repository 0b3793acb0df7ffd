//go:build !((386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego)

package wire

import (
	"encoding/binary"
	"math"
)

// Portable reference implementation: per-element encoding/binary conversion.
// Semantically identical to the unsafe fast path; used on big-endian targets
// and under the `purego` build tag.

// PutFloat32s writes src as little-endian float32 into dst, which must hold
// at least 4*len(src) bytes.
func PutFloat32s(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// Float32s reads little-endian float32 values from src into dst; src must
// hold at least 4*len(dst) bytes.
func Float32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// PutUint64s writes src as little-endian uint64 into dst, which must hold at
// least 8*len(src) bytes.
func PutUint64s(dst []byte, src []uint64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
}

// Uint64s reads little-endian uint64 values from src into dst; src must hold
// at least 8*len(dst) bytes.
func Uint64s(dst []uint64, src []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}
