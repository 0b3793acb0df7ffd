package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHalfRoundTripExact(t *testing.T) {
	// Values exactly representable in binary16 must round-trip exactly.
	exact := []float32{0, 1, -1, 0.5, 2, -2, 1024, 65504, -65504, 0.25, 6.1035156e-05}
	for _, v := range exact {
		got := HalfToFloat32(Float32ToHalf(v))
		if got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestHalfSpecials(t *testing.T) {
	tests := []struct {
		name string
		in   float32
		want func(float32) bool
	}{
		{name: "+inf", in: float32(math.Inf(1)), want: func(f float32) bool { return math.IsInf(float64(f), 1) }},
		{name: "-inf", in: float32(math.Inf(-1)), want: func(f float32) bool { return math.IsInf(float64(f), -1) }},
		{name: "nan", in: float32(math.NaN()), want: func(f float32) bool { return math.IsNaN(float64(f)) }},
		{name: "overflow", in: 1e10, want: func(f float32) bool { return math.IsInf(float64(f), 1) }},
		{name: "neg overflow", in: -1e10, want: func(f float32) bool { return math.IsInf(float64(f), -1) }},
		{name: "underflow", in: 1e-10, want: func(f float32) bool { return f == 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := HalfToFloat32(Float32ToHalf(tt.in))
			if !tt.want(got) {
				t.Errorf("%v -> %v", tt.in, got)
			}
		})
	}
}

func TestHalfSignedZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	h := Float32ToHalf(negZero)
	if h != 0x8000 {
		t.Errorf("-0 encodes to %#04x, want 0x8000", h)
	}
	if math.Signbit(float64(HalfToFloat32(h))) != true {
		t.Error("-0 must round-trip with its sign")
	}
}

func TestHalfSubnormals(t *testing.T) {
	// Smallest positive half subnormal = 2^-24.
	tiny := float32(math.Ldexp(1, -24))
	h := Float32ToHalf(tiny)
	if h != 0x0001 {
		t.Errorf("2^-24 encodes to %#04x, want 0x0001", h)
	}
	if got := HalfToFloat32(0x0001); got != tiny {
		t.Errorf("decode 0x0001 = %v, want %v", got, tiny)
	}
	// Largest subnormal: 0x03ff = (1023/1024) * 2^-14.
	want := float32(1023.0 / 1024.0 * math.Ldexp(1, -14))
	if got := HalfToFloat32(0x03ff); got != want {
		t.Errorf("decode 0x03ff = %v, want %v", got, want)
	}
	// Hand-written cases in units of 2^-24, the subnormal step: ties go to
	// the even neighbour, anything past a tie rounds away from it.
	ulp := func(units float64) float32 { return float32(math.Ldexp(units, -24)) }
	next := func(f float32) float32 { return math.Float32frombits(math.Float32bits(f) + 1) }
	prev := func(f float32) float32 { return math.Float32frombits(math.Float32bits(f) - 1) }
	cases := []struct {
		in   float32
		want uint16
	}{
		{ulp(0.5), 0x0000},       // exactly 2^-25: tie, to zero
		{next(ulp(0.5)), 0x0001}, // just above it
		{prev(ulp(0.5)), 0x0000}, // just below it
		{math.Float32frombits(0x33009cbc), 0x0001},
		{prev(ulp(1)), 0x0001},
		{ulp(1.5), 0x0002}, // tie between 1 and 2: even is 2
		{prev(ulp(1.5)), 0x0001},
		{ulp(2.5), 0x0002}, // tie between 2 and 3: even is 2
		{next(ulp(2.5)), 0x0003},
		{ulp(512), 0x0200}, // 2^-15
		{ulp(256), 0x0100}, // 2^-16
		{ulp(16), 0x0010},  // 2^-20
		{ulp(1022.5), 0x03fe},
		{ulp(1023.5), 0x0400}, // tie at the top carries into the smallest normal
		{prev(ulp(1023.5)), 0x03ff},
		{prev(ulp(1024)), 0x0400},
		{ulp(0.25), 0x0000},
	}
	for _, c := range cases {
		if got := Float32ToHalf(c.in); got != c.want {
			t.Errorf("Float32ToHalf(%#08x) = %#04x, want %#04x", math.Float32bits(c.in), got, c.want)
		}
		if got := Float32ToHalf(-c.in); got != c.want|0x8000 {
			t.Errorf("Float32ToHalf(-%#08x) = %#04x, want %#04x", math.Float32bits(c.in), got, c.want|0x8000)
		}
	}
}

// Every half that is not a NaN must survive decode-then-encode: 63 490
// patterns, subnormals included.
func TestHalfRoundTripAllNonNaN(t *testing.T) {
	count := 0
	for h := 0; h < 1<<16; h++ {
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 {
			continue
		}
		count++
		if got := Float32ToHalf(HalfToFloat32(uint16(h))); got != uint16(h) {
			t.Fatalf("Float32ToHalf(HalfToFloat32(%#04x)) = %#04x", h, got)
		}
	}
	if count != 63490 {
		t.Fatalf("swept %d patterns, want 63490", count)
	}
}

// Across the subnormal half range and a binade either side, the encoder must
// agree with round-half-even computed in float64, where value / 2^-24 is
// exact.
func TestHalfSubnormalOracle(t *testing.T) {
	lo, hi := math.Float32bits(float32(math.Ldexp(1, -27))), math.Float32bits(float32(math.Ldexp(1, -14)))
	for bits := lo; bits <= hi; bits += 101 {
		f := math.Float32frombits(bits)
		want := uint16(math.RoundToEven(math.Ldexp(float64(f), 24)))
		if got := Float32ToHalf(f); got != want {
			t.Fatalf("Float32ToHalf(%#08x) = %#04x, oracle %#04x", bits, got, want)
		}
		if got := Float32ToHalf(-f); got != want|0x8000 {
			t.Fatalf("Float32ToHalf(-%#08x) = %#04x, oracle %#04x", bits, got, want|0x8000)
		}
	}
}

func TestHalfRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10):
	// ties round to even mantissa (1.0).
	mid := float32(1) + float32(math.Ldexp(1, -11))
	if got := HalfToFloat32(Float32ToHalf(mid)); got != 1 {
		t.Errorf("tie %v rounded to %v, want 1 (even)", mid, got)
	}
	// Slightly above the tie must round up.
	above := float32(1) + float32(math.Ldexp(1, -11)) + float32(math.Ldexp(1, -20))
	wantUp := float32(1) + float32(math.Ldexp(1, -10))
	if got := HalfToFloat32(Float32ToHalf(above)); got != wantUp {
		t.Errorf("above-tie %v rounded to %v, want %v", above, got, wantUp)
	}
}

func TestEncodeDecodeHalfBuffers(t *testing.T) {
	src := []float32{1, -2.5, 0, 100, -0.125}
	buf := make([]byte, 2*len(src))
	n := EncodeHalf(buf, src)
	if n != len(buf) {
		t.Fatalf("EncodeHalf returned %d, want %d", n, len(buf))
	}
	dst := make([]float32, len(src))
	DecodeHalf(dst, buf)
	for i, v := range src {
		if dst[i] != v {
			t.Errorf("element %d: %v -> %v", i, v, dst[i])
		}
	}
}

// DecodeHalf's lookup table must agree with the scalar conversion for every
// one of the 65536 binary16 bit patterns.
func TestDecodeHalfTableExhaustive(t *testing.T) {
	src := make([]byte, 2*(1<<16))
	for h := 0; h < 1<<16; h++ {
		src[2*h] = byte(h)
		src[2*h+1] = byte(h >> 8)
	}
	dst := make([]float32, 1<<16)
	DecodeHalf(dst, src)
	for h := 0; h < 1<<16; h++ {
		want := HalfToFloat32(uint16(h))
		if math.Float32bits(dst[h]) != math.Float32bits(want) {
			t.Fatalf("pattern %#04x: table %v (%#08x) != scalar %v (%#08x)",
				h, dst[h], math.Float32bits(dst[h]), want, math.Float32bits(want))
		}
	}
}

// EncodeHalf's bulk fast path must produce bit-identical output to the scalar
// Float32ToHalf, across every binary16 value, their rounding neighbours and a
// random float sample.
func TestEncodeHalfMatchesScalar(t *testing.T) {
	var src []float32
	for h := 0; h < 1<<16; h++ {
		v := HalfToFloat32(uint16(h))
		src = append(src, v)
		if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			// Values just off the representable points exercise rounding.
			bits := math.Float32bits(v)
			src = append(src, math.Float32frombits(bits+1), math.Float32frombits(bits^1))
		}
	}
	for i := 0; i < 1<<16; i++ {
		// A dense sweep of raw fp32 patterns spread across the full range.
		src = append(src, math.Float32frombits(uint32(i)*65519))
	}
	buf := make([]byte, 2*len(src))
	EncodeHalf(buf, src)
	for i, v := range src {
		got := uint16(buf[2*i]) | uint16(buf[2*i+1])<<8
		if want := Float32ToHalf(v); got != want {
			t.Fatalf("element %d (%v, bits %#08x): bulk %#04x != scalar %#04x",
				i, v, math.Float32bits(v), got, want)
		}
	}
}

// Property: decode(encode(x)) is within half-precision relative error for all
// values inside the normal half range.
func TestQuickHalfRelativeError(t *testing.T) {
	f := func(v float32) bool {
		av := math.Abs(float64(v))
		if av > 65504 || av < 6.2e-05 || math.IsNaN(float64(v)) {
			return true // outside normal range: saturation behaviour tested elsewhere
		}
		got := float64(HalfToFloat32(Float32ToHalf(v)))
		rel := math.Abs(got-float64(v)) / av
		return rel <= 1.0/1024 // half has 10 mantissa bits -> eps/2 = 2^-11 < 1/1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is monotone on non-negative normal values.
func TestQuickHalfMonotone(t *testing.T) {
	f := func(a, b float32) bool {
		fa, fb := math.Abs(float64(a)), math.Abs(float64(b))
		if fa > 65504 || fb > 65504 || math.IsNaN(fa) || math.IsNaN(fb) {
			return true
		}
		x, y := float32(fa), float32(fb)
		if x > y {
			x, y = y, x
		}
		return Float32ToHalf(x) <= Float32ToHalf(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
