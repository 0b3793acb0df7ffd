//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package wire

import "unsafe"

// The architectures selected above are little-endian, so the in-memory
// representation of []float32 / []uint16 / []uint64 already matches the wire
// layout and every conversion is one memmove. Only typed slices are viewed as
// bytes (byte access has no alignment requirement); byte slices are never
// viewed as typed slices.

// PutFloat32s writes src as little-endian float32 into dst, which must hold
// at least 4*len(src) bytes.
func PutFloat32s(dst []byte, src []float32) {
	if len(src) == 0 {
		return
	}
	copy(dst[:4*len(src)], unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 4*len(src)))
}

// Float32s reads little-endian float32 values from src into dst; src must
// hold at least 4*len(dst) bytes.
func Float32s(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*len(dst)), src[:4*len(dst)])
}

// PutUint64s writes src as little-endian uint64 into dst, which must hold at
// least 8*len(src) bytes.
func PutUint64s(dst []byte, src []uint64) {
	if len(src) == 0 {
		return
	}
	copy(dst[:8*len(src)], unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), 8*len(src)))
}

// Uint64s reads little-endian uint64 values from src into dst; src must hold
// at least 8*len(dst) bytes.
func Uint64s(dst []uint64, src []byte) {
	if len(dst) == 0 {
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), src[:8*len(dst)])
}
