package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"aiacc/tensor"
)

// These property tests pin the append-style EncodeTo path to the original
// per-element wire format: for every codec, EncodeTo must produce bytes
// identical to a straightforward scalar reference, regardless of the bulk
// kernels (memmove, F16C, table lookups) used underneath, and appending after
// an arbitrary prefix must not change the emitted bytes.

// referenceEncode is the original per-element encoding for the dense codecs.
func referenceEncode(name string, src []float32) []byte {
	switch name {
	case "fp32":
		out := make([]byte, 4*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		return out
	case "fp16":
		out := make([]byte, 2*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint16(out[2*i:], tensor.Float32ToHalf(v))
		}
		return out
	}
	panic("unknown reference codec " + name)
}

// checkEncodeToProperties verifies, for one codec and input, that
// Encode == EncodeTo(nil) == the suffix EncodeTo appends to a prefix, that
// the prefix is preserved, and that Decode round-trips the bytes.
func checkEncodeToProperties(t *testing.T, codec Codec, src []float32, want []byte) {
	t.Helper()
	plain := codec.Encode(src)
	if !bytes.Equal(plain, want) {
		t.Fatalf("%s: Encode differs from scalar reference", codec.Name())
	}
	appendNil := codec.EncodeTo(nil, src)
	if !bytes.Equal(appendNil, plain) {
		t.Fatalf("%s: EncodeTo(nil) differs from Encode", codec.Name())
	}
	prefix := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	withPrefix := codec.EncodeTo(append([]byte(nil), prefix...), src)
	if !bytes.Equal(withPrefix[:len(prefix)], prefix) {
		t.Fatalf("%s: EncodeTo corrupted the prefix", codec.Name())
	}
	if !bytes.Equal(withPrefix[len(prefix):], plain) {
		t.Fatalf("%s: appended bytes differ from standalone encoding", codec.Name())
	}
	// Steady-state reuse: encoding into recycled capacity must not change
	// the bytes.
	reused := codec.EncodeTo(withPrefix[:0], src)
	if !bytes.Equal(reused, plain) {
		t.Fatalf("%s: EncodeTo into reused buffer differs", codec.Name())
	}
	back := make([]float32, len(src))
	if err := codec.Decode(back, plain); err != nil {
		t.Fatalf("%s: Decode: %v", codec.Name(), err)
	}
}

func TestEncodeToMatchesReferenceFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 5, 64, 1001} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
		checkEncodeToProperties(t, FP32{}, src, referenceEncode("fp32", src))
		// fp32 decode must reproduce inputs bit-exactly.
		back := make([]float32, n)
		if err := (FP32{}).Decode(back, (FP32{}).Encode(src)); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if math.Float32bits(back[i]) != math.Float32bits(src[i]) {
				t.Fatalf("fp32 round trip element %d: %x != %x", i,
					math.Float32bits(back[i]), math.Float32bits(src[i]))
			}
		}
	}
}

// TestEncodeToMatchesReferenceFP16 drives every representable half pattern
// (including subnormals, infinities and NaNs), the fp32 neighbors of each
// (exercising both rounding directions and ties), plus a dense sweep of raw
// fp32 bit patterns, through the codec and compares with the scalar
// reference.
func TestEncodeToMatchesReferenceFP16(t *testing.T) {
	var src []float32
	for h := 0; h < 1<<16; h++ {
		f := tensor.HalfToFloat32(uint16(h))
		b := math.Float32bits(f)
		src = append(src, f, math.Float32frombits(b+1), math.Float32frombits(b-1))
	}
	for i := uint32(0); i < 1<<16; i++ {
		src = append(src, math.Float32frombits(i*65519))
	}
	checkEncodeToProperties(t, FP16{}, src, referenceEncode("fp16", src))

	// Decode of every encoded half must equal the scalar half->float
	// conversion.
	enc := (FP16{}).Encode(src)
	back := make([]float32, len(src))
	if err := (FP16{}).Decode(back, enc); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		want := tensor.HalfToFloat32(tensor.Float32ToHalf(src[i]))
		if math.Float32bits(back[i]) != math.Float32bits(want) {
			t.Fatalf("fp16 round trip element %d (%x): %x != %x", i,
				math.Float32bits(src[i]), math.Float32bits(back[i]), math.Float32bits(want))
		}
	}
}

// Odd lengths and sub-slice offsets mirror how the ring collectives slice
// chunks out of a larger tensor.
func TestEncodeToFP16OddLengthsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := make([]float32, 80)
	for i := range base {
		base[i] = float32(rng.NormFloat64())
	}
	base[7] = 0
	base[8] = float32(math.Inf(1))
	base[9] = float32(math.NaN())
	base[10] = 5.96e-8 // half subnormal range
	for off := 0; off < 4; off++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 17, 76} {
			src := base[off : off+n]
			checkEncodeToProperties(t, FP16{}, src, referenceEncode("fp16", src))
		}
	}
}
