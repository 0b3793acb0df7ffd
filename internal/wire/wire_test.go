package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"aiacc/tensor"
)

// The active implementation (unsafe or portable, whichever the build
// selected) must agree with encoding/binary on every conversion.

func TestFloat32sAgainstBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		src = append(src, float32(math.NaN()), float32(math.Inf(1)), 0, -0.0)
		want := make([]byte, 4*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(v))
		}
		got := make([]byte, 4*len(src))
		PutFloat32s(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("PutFloat32s(n=%d) mismatch", n)
		}
		back := make([]float32, len(src))
		Float32s(back, got)
		for i := range back {
			if math.Float32bits(back[i]) != math.Float32bits(src[i]) {
				t.Fatalf("Float32s(n=%d) element %d: %x != %x", n, i,
					math.Float32bits(back[i]), math.Float32bits(src[i]))
			}
		}
	}
}

func TestUint64sAgainstBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 333} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		want := make([]byte, 8*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint64(want[8*i:], v)
		}
		got := make([]byte, 8*len(src))
		PutUint64s(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("PutUint64s(n=%d) mismatch", n)
		}
		back := make([]uint64, n)
		Uint64s(back, got)
		for i := range back {
			if back[i] != src[i] {
				t.Fatalf("Uint64s(n=%d) element %d: %x != %x", n, i, back[i], src[i])
			}
		}
	}
}

// Conversions must work on unaligned byte offsets: payloads routinely carry
// typed data at arbitrary positions (e.g. the top-k codec's 8-byte header
// followed by index/value pairs).
func TestUnalignedByteOffsets(t *testing.T) {
	src := []float32{1.5, -2.25, 3.75}
	buf := make([]byte, 4*len(src)+1)
	PutFloat32s(buf[1:], src)
	back := make([]float32, len(src))
	Float32s(back, buf[1:])
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("unaligned round trip element %d: %v != %v", i, back[i], src[i])
		}
	}
}

// EncodeHalf (F16C on a capable amd64) must be bit-identical to the
// scalar reference for every value class: all exactly-representable halves,
// values that exercise both rounding directions and ties, specials, and a
// dense sweep of raw bit patterns.
func TestEncodeHalfMatchesScalar(t *testing.T) {
	var vals []float32
	// Every half pattern and its fp32 neighbors (rounding both ways).
	for h := 0; h < 1<<16; h++ {
		f := tensor.HalfToFloat32(uint16(h))
		b := math.Float32bits(f)
		vals = append(vals, f, math.Float32frombits(b+1), math.Float32frombits(b-1))
	}
	// Dense sweep across the whole fp32 bit space.
	for i := uint32(0); i < 1<<16; i++ {
		vals = append(vals, math.Float32frombits(i*65519))
	}
	got := make([]byte, 2*len(vals))
	if n := EncodeHalf(got, vals); n != len(got) {
		t.Fatalf("EncodeHalf returned %d, want %d", n, len(got))
	}
	for i, v := range vals {
		want := tensor.Float32ToHalf(v)
		if g := binary.LittleEndian.Uint16(got[2*i:]); g != want {
			t.Fatalf("EncodeHalf(%x) = %04x, want %04x", math.Float32bits(v), g, want)
		}
	}
}

// EncodeHalf must handle odd lengths (scalar tail) and sources at arbitrary
// offsets into a larger tensor, the way the ring collectives slice chunks.
func TestEncodeHalfOddLengthsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]float32, 67)
	for i := range base {
		base[i] = float32(rng.NormFloat64())
	}
	base[11] = 0
	base[12] = float32(math.Inf(-1))
	for _, off := range []int{0, 1, 2, 3} {
		for _, n := range []int{0, 1, 2, 3, 5, 8, 63} {
			src := base[off : off+n]
			got := make([]byte, 2*n)
			EncodeHalf(got, src)
			for i, v := range src {
				want := tensor.Float32ToHalf(v)
				if g := binary.LittleEndian.Uint16(got[2*i:]); g != want {
					t.Fatalf("off=%d n=%d element %d: %04x, want %04x", off, n, i, g, want)
				}
			}
		}
	}
}

func TestGrow(t *testing.T) {
	b := Grow(nil, 8)
	if len(b) != 8 {
		t.Fatalf("Grow(nil, 8) len = %d", len(b))
	}
	b = b[:0]
	b = append(b, 1, 2, 3)
	g := Grow(b, 4)
	if len(g) != 7 {
		t.Fatalf("Grow len = %d, want 7", len(g))
	}
	if g[0] != 1 || g[1] != 2 || g[2] != 3 {
		t.Fatal("Grow must preserve prefix")
	}
	if cap(b) >= 7 && &g[0] != &b[:1][0] {
		t.Fatal("Grow must reuse capacity when available")
	}
}
