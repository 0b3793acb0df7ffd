package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"aiacc/tensor"
)

// Differential tests of the kernel set: whatever the build dispatches to (the
// AVX/F16C assembly on a capable amd64, the portable loops elsewhere and
// under -tags purego) must be bit-identical to the two-step scalar
// specification written out below from the tensor package's primitives.

// kernel is one byte-path kernel in a uniform shape: it updates dst from
// wire bytes src, and ref is its specification. elemBytes is the wire size
// of one element.
type kernel struct {
	name      string
	elemBytes int
	run, ref  func(dst []float32, src []byte)
}

const testScale = float32(1) / 3

func decodeKernels() []kernel {
	return []kernel{
		{"DecodeHalf", 2, DecodeHalf, func(dst []float32, src []byte) {
			for i := range dst {
				dst[i] = tensor.HalfToFloat32(binary.LittleEndian.Uint16(src[2*i:]))
			}
		}},
		{"DecodeHalfAdd", 2, DecodeHalfAdd, func(dst []float32, src []byte) {
			tmp := make([]float32, len(dst))
			tensor.DecodeHalf(tmp, src)
			tensor.AddSlice(dst, tmp)
		}},
		{"AddFloat32s", 4, AddFloat32s, func(dst []float32, src []byte) {
			tmp := make([]float32, len(dst))
			for i := range tmp {
				tmp[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
			}
			tensor.AddSlice(dst, tmp)
		}},
		// The scale kernel has no wire operand; src is ignored.
		{"ScaleFloat32s", 0, func(dst []float32, _ []byte) { ScaleFloat32s(dst, testScale) },
			func(dst []float32, _ []byte) {
				for i := range dst {
					dst[i] *= testScale
				}
			}},
	}
}

// specials are the operands on which hardware and portable loops could
// disagree: NaNs of both kinds with payloads and either sign, infinities
// (Inf + -Inf makes a NaN), signed zeros, and the half overflow edge.
var specials = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffe54321, // quiet NaNs
	0x7f800001, 0xff8abcde, 0x7fbfffff, // signalling NaNs
	0x7f800000, 0xff800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x477fe000, 0x477ff000, 0xc77fe000, 0xc77ff000, // ±65504, ±65520
	0x00000001, 0x807fffff, // fp32 subnormals
}

// fillFloats writes gradient-like values with a special roughly every
// density elements (never, when density is 0).
func fillFloats(rng *rand.Rand, dst []float32, density int) {
	for i := range dst {
		if density > 0 && rng.Intn(density) == 0 {
			dst[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
		} else {
			dst[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(24)-16)))
		}
	}
}

// wireOf encodes vals in the kernel's wire format: raw fp32 bits, or halves.
func wireOf(elemBytes int, vals []float32) []byte {
	out := make([]byte, elemBytes*len(vals))
	for i, v := range vals {
		switch elemBytes {
		case 4:
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		case 2:
			// Keep NaN payloads and signs on the wire: a peer's bytes are
			// arbitrary, whatever this build's encoder would produce.
			h := tensor.Float32ToHalf(v)
			if v != v {
				h = uint16(math.Float32bits(v)>>16)&0x8000 | 0x7c00 | uint16(math.Float32bits(v)>>13)&0x3ff | 1
			}
			binary.LittleEndian.PutUint16(out[2*i:], h)
		}
	}
	return out
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// Every length 0..67 at every source and destination element offset 0..7:
// unaligned loads and stores, vector bodies of 0..8 vectors, tails of 1..7,
// with specials landing in the body and in the tail, and guard elements on
// both sides of dst that no kernel may touch.
func TestKernelsLengthsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const guard = float32(-12345.5)
	for _, k := range decodeKernels() {
		for _, density := range []int{0, 9} {
			for n := 0; n <= 67; n++ {
				for dOff := 0; dOff < 8; dOff++ {
					for sOff := 0; sOff < 8; sOff++ {
						vals := make([]float32, n)
						fillFloats(rng, vals, density)
						src := append(make([]byte, sOff*k.elemBytes), wireOf(k.elemBytes, vals)...)[sOff*k.elemBytes:]
						got := make([]float32, dOff+n+8)
						for i := range got {
							got[i] = guard
						}
						fillFloats(rng, got[dOff:dOff+n], density)
						want := append([]float32(nil), got...)
						k.run(got[dOff:dOff+n], src)
						k.ref(want[dOff:dOff+n], src)
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("%s n=%d dst+%d src+%d specials=1/%d: element %d = %#08x, want %#08x",
								k.name, n, dOff, sOff, density, i-dOff,
								math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// The encoder over the same grid; its destination is bytes, so it gets its
// own loop.
func TestEncodeHalfLengthsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, density := range []int{0, 9} {
		for n := 0; n <= 67; n++ {
			for dOff := 0; dOff < 8; dOff++ {
				for sOff := 0; sOff < 8; sOff++ {
					base := make([]float32, sOff+n)
					fillFloats(rng, base, density)
					src := base[sOff:]
					got := bytes.Repeat([]byte{0xa5}, 2*(dOff+n+8))
					want := append([]byte(nil), got...)
					if wrote := EncodeHalf(got[2*dOff:2*dOff+2*n], src); wrote != 2*n {
						t.Fatalf("EncodeHalf returned %d, want %d", wrote, 2*n)
					}
					for i, v := range src {
						binary.LittleEndian.PutUint16(want[2*(dOff+i):], tensor.Float32ToHalf(v))
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("EncodeHalf n=%d dst+%d src+%d specials=1/%d:\n got %x\nwant %x",
							n, dOff, sOff, density, got, want)
					}
				}
			}
		}
	}
}

// Long inputs cross the per-call block bound; a NaN early, late and in the
// last block checks the hand-over to the portable loop and back.
func TestKernelsAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 3*blockElems + 13
	for _, k := range decodeKernels() {
		for _, nanAt := range [][]int{nil, {5}, {blockElems - 1, blockElems}, {2*blockElems + 77, n - 1}} {
			vals := make([]float32, n)
			fillFloats(rng, vals, 0)
			got := make([]float32, n)
			fillFloats(rng, got, 0)
			for _, i := range nanAt {
				vals[i] = math.Float32frombits(0xffc54321)
				got[(i+9)%n] = math.Float32frombits(0x7f801234)
			}
			src := wireOf(k.elemBytes, vals)
			want := append([]float32(nil), got...)
			k.run(got, src)
			k.ref(want, src)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s NaNs at %v: element %d = %#08x, want %#08x", k.name, nanAt, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	src := make([]float32, n)
	fillFloats(rng, src, 0)
	src[7], src[blockElems+1], src[n-2] = float32(math.NaN()), math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00001)
	got, want := make([]byte, 2*n), make([]byte, 2*n)
	EncodeHalf(got, src)
	tensor.EncodeHalf(want, src)
	if !bytes.Equal(got, want) {
		t.Fatal("EncodeHalf across blocks differs from the portable loop")
	}
}

// All 65 536 half patterns through both decoders; the accumulating one over
// destinations that make ordinary sums, NaN-with-NaN pairs and Inf-Inf.
func TestDecodeHalfAllPatterns(t *testing.T) {
	src := make([]byte, 2<<16)
	for h := 0; h < 1<<16; h++ {
		binary.LittleEndian.PutUint16(src[2*h:], uint16(h))
	}
	got := make([]float32, 1<<16)
	DecodeHalf(got, src)
	for h := range got {
		if want := tensor.HalfToFloat32(uint16(h)); math.Float32bits(got[h]) != math.Float32bits(want) {
			t.Fatalf("DecodeHalf(%#04x) = %#08x, want %#08x", h, math.Float32bits(got[h]), math.Float32bits(want))
		}
	}
	for _, d := range []uint32{0x3f800000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00001, 0xff800001} {
		want := make([]float32, 1<<16)
		for i := range got {
			got[i], want[i] = math.Float32frombits(d), math.Float32frombits(d)
		}
		DecodeHalfAdd(got, src)
		tmp := make([]float32, 1<<16)
		tensor.DecodeHalf(tmp, src)
		tensor.AddSlice(want, tmp)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%#08x + half %#04x = %#08x, want %#08x", d, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// encodeCorpus is the hand-picked part of the encoder's input space: both
// sides of every fp32 exponent boundary, the rounding ties and their
// neighbours in the normal half range, every tie of the subnormal half range
// (the midpoints (h+½)·2⁻²⁴, exact in fp32) with its neighbours, the overflow
// edge, zeros, infinities and NaNs of both kinds.
func encodeCorpus() []float32 {
	var c []float32
	add := func(bits uint32) {
		c = append(c, math.Float32frombits(bits), math.Float32frombits(bits|0x80000000))
	}
	for e := uint32(0); e < 256; e++ {
		for _, m := range []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x2fff, 0x3000, 0x3001, 0x7fefff, 0x7ff000, 0x7ff001, 0x7fffff} {
			add(e<<23 | m)
		}
	}
	for h := 0; h <= 0x400; h++ {
		tie := math.Float32bits(float32(math.Ldexp(float64(h)+0.5, -24)))
		add(tie - 1)
		add(tie)
		add(tie + 1)
	}
	for _, s := range specials {
		add(s)
	}
	add(0x33009cbc) // in (2^-25, 2^-24): rounds up to 0x0001
	return c
}

func checkEncode(t *testing.T, src []float32) {
	t.Helper()
	got := make([]byte, 2*len(src))
	EncodeHalf(got, src)
	for i, v := range src {
		if g, want := binary.LittleEndian.Uint16(got[2*i:]), tensor.Float32ToHalf(v); g != want {
			t.Fatalf("EncodeHalf(%#08x) = %#04x, want %#04x", math.Float32bits(v), g, want)
		}
	}
}

func TestEncodeHalfBoundaries(t *testing.T) {
	c := encodeCorpus()
	checkEncode(t, c)
	// Once more with each value alone in a vector of ordinary numbers, so a
	// NaN's detour does not also hide what the hardware does to the finite
	// cases beside it.
	v := make([]float32, 8)
	for _, x := range c {
		for i := range v {
			v[i] = 1.5
		}
		v[3] = x
		checkEncode(t, v)
	}
}

// A sweep of the 2³² fp32 patterns against the portable bulk encoder, which
// the tensor package pins to the scalar: every pattern, or every 4099th under
// -short, under the race detector, and where there is no assembly to differ
// from the portable loop.
func TestEncodeHalfSweep(t *testing.T) {
	stride := uint64(1)
	if testing.Short() || raceEnabled || !useAVX {
		stride = 4099
	}
	const chunk = 1 << 16
	src := make([]float32, chunk)
	got, want := make([]byte, 2*chunk), make([]byte, 2*chunk)
	for base := uint64(0); base < 1<<32; base += chunk * stride {
		for i := range src {
			src[i] = math.Float32frombits(uint32(base + uint64(i)*stride))
		}
		EncodeHalf(got, src)
		tensor.EncodeHalf(want, src)
		if !bytes.Equal(got, want) {
			for i := range src {
				if g, w := binary.LittleEndian.Uint16(got[2*i:]), binary.LittleEndian.Uint16(want[2*i:]); g != w {
					t.Fatalf("EncodeHalf(%#08x) = %#04x, portable %#04x", math.Float32bits(src[i]), g, w)
				}
			}
		}
	}
}

var benchSink int

// BenchmarkWireKernels times each kernel on one 128 KiB fp32 segment (32 Ki
// elements), the unit of work of a ring hop, through the build's dispatch
// ("kernel": the assembly where the CPU has it) and through the portable
// loop alone.
func BenchmarkWireKernels(b *testing.B) {
	const n = 32 << 10
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64()) // all but a few in the normal half range, like gradients
	}
	half, full := wireOf(2, vals), wireOf(4, vals)
	dst := make([]float32, n)
	out := make([]byte, 2*n)
	arms := []struct {
		name             string
		kernel, portable func()
	}{
		{"encode", func() { benchSink = EncodeHalf(out, vals) }, func() { benchSink = tensor.EncodeHalf(out, vals) }},
		{"decode", func() { DecodeHalf(dst, half) }, func() { tensor.DecodeHalf(dst, half) }},
		{"decode-add", func() { DecodeHalfAdd(dst, half) }, func() { decodeHalfAddGo(dst, half) }},
		{"add", func() { AddFloat32s(dst, full) }, func() { addFloat32sGo(dst, full) }},
		{"scale", func() { ScaleFloat32s(dst, 1) }, func() { scaleFloat32sGo(dst, 1) }},
	}
	for _, a := range arms {
		for _, arm := range []struct {
			name string
			f    func()
		}{{"kernel", a.kernel}, {"portable", a.portable}} {
			b.Run(a.name+"/"+arm.name, func(b *testing.B) {
				b.SetBytes(4 * n)
				for i := 0; i < b.N; i++ {
					arm.f()
				}
			})
		}
	}
}
