package wire

import "aiacc/tensor"

// The gradient byte path's five kernels. Each exists twice: a portable Go
// loop (tensor.EncodeHalf, tensor.DecodeHalf and the three loops at the
// bottom of this file), which is the specification and the only code on
// non-amd64 targets, under the `purego` tag and on CPUs without F16C; and an
// AVX/F16C loop in kernels_amd64.s. Dispatch is by CPU
// capability alone (useAVX) — there is no option to set.
//
// An assembly kernel converts whole 8-lane vectors and returns how many
// elements it finished. It stops early, before storing, at the first vector
// holding a NaN lane: the hardware keeps NaN payloads and picks between two
// NaN operands by position, the portable loops canonicalize, and results
// must not depend on the build. The portable loop then finishes the block
// from where the assembly stopped, which covers the sub-vector tail the same
// way. Assembly has no preemption points, so one call never covers more than
// blockElems elements (a couple of microseconds).
const blockElems = 4096

// EncodeHalf serializes src as little-endian binary16 into dst, which must
// have capacity for 2*len(src) bytes; it returns the byte count. Results are
// bit-identical to tensor.Float32ToHalf per element.
func EncodeHalf(dst []byte, src []float32) int {
	total := 2 * len(src)
	dst = dst[:total]
	if !useAVX {
		return tensor.EncodeHalf(dst, src)
	}
	for len(src) > 0 {
		n := min(len(src), blockElems)
		if done := encodeHalfAVX(&dst[0], &src[0], n); done < n {
			tensor.EncodeHalf(dst[2*done:2*n], src[done:n])
		}
		dst, src = dst[2*n:], src[n:]
	}
	return total
}

// DecodeHalf parses little-endian binary16 values from src, which must hold
// at least 2*len(dst) bytes, into dst. Results are bit-identical to
// tensor.HalfToFloat32 per element.
func DecodeHalf(dst []float32, src []byte) {
	src = src[:2*len(dst)]
	if !useAVX {
		tensor.DecodeHalf(dst, src)
		return
	}
	for len(dst) > 0 {
		n := min(len(dst), blockElems)
		if done := decodeHalfAVX(&dst[0], &src[0], n); done < n {
			tensor.DecodeHalf(dst[done:n], src[2*done:2*n])
		}
		dst, src = dst[n:], src[2*n:]
	}
}

// DecodeHalfAdd accumulates the little-endian binary16 values of src, which
// must hold at least 2*len(dst) bytes, into dst: bit-identical to DecodeHalf
// into scratch followed by tensor.AddSlice, in one pass over dst.
func DecodeHalfAdd(dst []float32, src []byte) {
	src = src[:2*len(dst)]
	if !useAVX {
		decodeHalfAddGo(dst, src)
		return
	}
	for len(dst) > 0 {
		n := min(len(dst), blockElems)
		if done := decodeHalfAddAVX(&dst[0], &src[0], n); done < n {
			decodeHalfAddGo(dst[done:n], src[2*done:2*n])
		}
		dst, src = dst[n:], src[2*n:]
	}
}

// AddFloat32s accumulates the little-endian float32 values of src, which
// must hold at least 4*len(dst) bytes, into dst: bit-identical to Float32s
// into scratch followed by tensor.AddSlice, in one pass over dst.
func AddFloat32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if !useAVX {
		addFloat32sGo(dst, src)
		return
	}
	for len(dst) > 0 {
		n := min(len(dst), blockElems)
		if done := addFloat32sAVX(&dst[0], &src[0], n); done < n {
			addFloat32sGo(dst[done:n], src[4*done:4*n])
		}
		dst, src = dst[n:], src[4*n:]
	}
}

// ScaleFloat32s multiplies every element of dst by f.
func ScaleFloat32s(dst []float32, f float32) {
	if !useAVX {
		scaleFloat32sGo(dst, f)
		return
	}
	for len(dst) > 0 {
		n := min(len(dst), blockElems)
		if done := scaleFloat32sAVX(&dst[0], f, n); done < n {
			scaleFloat32sGo(dst[done:n], f)
		}
		dst = dst[n:]
	}
}

// The portable accumulating kernels are the two-step specification itself,
// run through a scratch small enough to stay in L1: a single fused Go loop
// is not guaranteed to agree with tensor.AddSlice when both operands are
// NaN, because which one the sum keeps depends on the operand order the
// compiler happens to pick for that loop.
const stageElems = 256

func decodeHalfAddGo(dst []float32, src []byte) {
	var tmp [stageElems]float32
	for len(dst) > 0 {
		n := min(len(dst), stageElems)
		tensor.DecodeHalf(tmp[:n], src[:2*n])
		tensor.AddSlice(dst[:n], tmp[:n])
		dst, src = dst[n:], src[2*n:]
	}
}

func addFloat32sGo(dst []float32, src []byte) {
	var tmp [stageElems]float32
	for len(dst) > 0 {
		n := min(len(dst), stageElems)
		Float32s(tmp[:n], src[:4*n])
		tensor.AddSlice(dst[:n], tmp[:n])
		dst, src = dst[n:], src[4*n:]
	}
}

func scaleFloat32sGo(dst []float32, f float32) {
	for i := range dst {
		dst[i] *= f
	}
}
