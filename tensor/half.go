package tensor

import (
	"encoding/binary"
	"math"
	"sync"
)

// IEEE 754 half-precision (binary16) conversion. AIACC-Training uses a
// half-precision representation of gradients to halve the bytes on the wire
// (§X, gradient compression); the reduction itself still happens in fp32.
// The conversion is implemented from scratch because the reproduction is
// stdlib-only.

// Float32ToHalf converts an fp32 value to its binary16 bit pattern with IEEE
// round-to-nearest-even over the whole range — normal and subnormal halves
// alike, which is what the F16C conversion instruction computes — saturating
// overflow to ±Inf, rounding magnitudes of at most 2^-25 to signed zero and
// mapping every NaN to the quiet NaN 0x7e00 with the input's sign.
func Float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127
	mant := bits & 0x7fffff

	switch {
	case exp == 128: // NaN or Inf
		if mant != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00 // Inf
	case exp > 15: // overflow -> Inf
		return sign | 0x7c00
	case exp >= -14: // normal half range
		// 10-bit mantissa; round to nearest even on the 13 dropped bits.
		h := uint32(exp+15)<<10 | mant>>13
		round := mant & 0x1fff
		if round > 0x1000 || (round == 0x1000 && h&1 == 1) {
			h++
		}
		return sign | uint16(h)
	case exp >= -25: // subnormal half, or the round-up to the smallest one
		// The value is mant24 * 2^(exp-23) and a half subnormal counts units
		// of 2^-24, so the result is mant24 >> (-exp-1), rounded to nearest
		// even on the bits shifted out. At exp == -25 the quotient is 0 and
		// only the rounding decides: exactly 2^-25 ties to zero, anything
		// above rounds up to 0x0001. A carry out of 0x03ff lands on 0x0400,
		// the smallest normal, as it should.
		mant |= 0x800000 // restore the implicit bit
		shift := uint32(-exp - 1)
		h := mant >> shift
		round := mant & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if round > half || (round == half && h&1 == 1) {
			h++
		}
		return sign | uint16(h)
	default: // underflow -> signed zero
		return sign
	}
}

// HalfToFloat32 converts a binary16 bit pattern to fp32.
func HalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)

	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000) // Inf
		}
		return math.Float32frombits(sign | 0x7fc00000) // NaN
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// EncodeHalf serializes src as little-endian binary16 into dst, which must
// have capacity for 2*len(src) bytes. It returns the encoded byte count.
//
// This is the bulk kernel behind the fp16 wire codec: values in the normal
// half range take a branchless integer path (identical bit results to
// Float32ToHalf, including round-to-nearest-even); zeros, subnormals and
// specials fall back to the scalar conversion.
func EncodeHalf(dst []byte, src []float32) int {
	if len(src) == 0 {
		return 0
	}
	total := 2 * len(src)
	d := dst[:total:total]
	s := src
	// 4-wide: when all four values are in the normal half range (the
	// overwhelmingly common case for gradients) the quad is converted
	// branchlessly and packed into one 64-bit store; otherwise each element
	// takes the general path. Sliding both slices forward instead of indexing
	// lets the compiler eliminate all per-element bounds checks.
	for len(s) >= 4 {
		b0 := math.Float32bits(s[0])
		b1 := math.Float32bits(s[1])
		b2 := math.Float32bits(s[2])
		b3 := math.Float32bits(s[3])
		a0 := b0 & 0x7fffffff
		a1 := b1 & 0x7fffffff
		a2 := b2 & 0x7fffffff
		a3 := b3 & 0x7fffffff
		var w uint64
		if a0-halfMinNormal < halfNormalSpan && a1-halfMinNormal < halfNormalSpan &&
			a2-halfMinNormal < halfNormalSpan && a3-halfMinNormal < halfNormalSpan {
			w = uint64(halfNormal(b0, a0)) |
				uint64(halfNormal(b1, a1))<<16 |
				uint64(halfNormal(b2, a2))<<32 |
				uint64(halfNormal(b3, a3))<<48
		} else {
			w = uint64(encodeHalfOne(b0)) |
				uint64(encodeHalfOne(b1))<<16 |
				uint64(encodeHalfOne(b2))<<32 |
				uint64(encodeHalfOne(b3))<<48
		}
		binary.LittleEndian.PutUint64(d, w)
		s = s[4:]
		d = d[8:]
	}
	for i, v := range s {
		binary.LittleEndian.PutUint16(d[2*i:], encodeHalfOne(math.Float32bits(v)))
	}
	return total
}

const (
	halfMinNormal  = 0x38800000                 // fp32 bits of 2^-14, the smallest normal half
	halfNormalSpan = 0x47800000 - halfMinNormal // width of the normal half range [2^-14, 2^16)
)

// halfNormal converts an fp32 bit pattern known to be in the normal half
// range; abs is bits with the sign cleared. Rebias the exponent by
// subtracting (127-15)<<23, then fold the drop of 13 mantissa bits and
// round-to-nearest-even into one add+shift: adding 0xfff plus the kept LSB
// carries into the result exactly when round > half, or round == half with
// the kept LSB odd. Bit-identical to Float32ToHalf on this range.
func halfNormal(bits, abs uint32) uint32 {
	return (bits>>16)&0x8000 | (abs-0x38000000+0xfff+(abs>>13&1))>>13
}

// encodeHalfOne converts one fp32 bit pattern, any value, bit-identical to
// Float32ToHalf.
func encodeHalfOne(bits uint32) uint16 {
	abs := bits & 0x7fffffff
	if abs-halfMinNormal < halfNormalSpan {
		return uint16(halfNormal(bits, abs))
	}
	return encodeHalfSlow(bits)
}

// encodeHalfSlow handles the patterns outside the normal half range. It is
// kept out of line so that encodeHalfOne stays within the inlining budget.
//
//go:noinline
func encodeHalfSlow(bits uint32) uint16 {
	if bits&0x7f800000 == 0 {
		// ±0 and fp32 subnormals (which all flush): sign only.
		return uint16(bits>>16) & 0x8000
	}
	// Half subnormals, underflow, overflow, Inf, NaN.
	return Float32ToHalf(math.Float32frombits(bits))
}

// halfTable maps every binary16 bit pattern to its float32 value: the fp16
// decode becomes one table load per element. 256 KiB, built on first use.
var (
	halfTableOnce sync.Once
	halfTable     *[1 << 16]float32
)

func initHalfTable() *[1 << 16]float32 {
	halfTableOnce.Do(func() {
		var t [1 << 16]float32
		for h := 0; h < 1<<16; h++ {
			t[h] = HalfToFloat32(uint16(h))
		}
		halfTable = &t
	})
	return halfTable
}

// DecodeHalf parses little-endian binary16 values from src into dst, which
// must have len(src)/2 elements.
func DecodeHalf(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	table := initHalfTable()
	s := src[: 2*len(dst) : 2*len(dst)]
	d := dst
	// 8-wide: each 64-bit load feeds four table lookups. Indexing a
	// [65536]float32 by a uint16-valued expression needs no bounds check,
	// and the sliding slices eliminate the store-side checks.
	for len(d) >= 8 {
		w := binary.LittleEndian.Uint64(s)
		d[0] = table[uint16(w)]
		d[1] = table[uint16(w>>16)]
		d[2] = table[uint16(w>>32)]
		d[3] = table[uint16(w>>48)]
		w = binary.LittleEndian.Uint64(s[8:])
		d[4] = table[uint16(w)]
		d[5] = table[uint16(w>>16)]
		d[6] = table[uint16(w>>32)]
		d[7] = table[uint16(w>>48)]
		d = d[8:]
		s = s[16:]
	}
	for i := range d {
		d[i] = table[binary.LittleEndian.Uint16(s[2*i:])]
	}
}
