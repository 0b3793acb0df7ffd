package compress

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// splitInput mixes the values a codec treats specially (zeros, infinities,
// NaNs, fp16 subnormals and overflow, rounding ties) with normal values, so
// that any split point lands next to some of them.
func splitInput(n int) []float32 {
	special := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), 65504, 65520, 1e-7, -6.1e-5, 1 + 1.0/2048, 3.14159,
	}
	rng := rand.New(rand.NewSource(int64(n)))
	src := make([]float32, n)
	for i := range src {
		if rng.Intn(3) == 0 {
			src[i] = special[rng.Intn(len(special))]
		} else {
			src[i] = float32(rng.NormFloat64() * 100)
		}
	}
	return src
}

// The ring runs over an all-reduce unit's pieces one codec call per piece,
// which the Codec contract allows because encoding is split-invariant: at
// every split point, encoding the two halves back to back gives the bytes of
// the whole, and decoding (or decode-adding) the payload split at the first
// half's WireBytes gives the whole's result.
func TestCodecSplitInvariant(t *testing.T) {
	for _, codec := range []Codec{FP32{}, FP16{}} {
		for _, n := range []int{1, 7, 8, 9, 33, 67} {
			src := splitInput(n)
			whole := codec.Encode(src)
			wantDec := make([]float32, n)
			if err := codec.Decode(wantDec, whole); err != nil {
				t.Fatal(err)
			}
			wantAdd := splitInput(n + 1)[:n]
			accum := slices.Clone(wantAdd)
			if err := codec.DecodeAdd(wantAdd, whole); err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= n; k++ {
				wk := codec.WireBytes(k)
				if wk+codec.WireBytes(n-k) != codec.WireBytes(n) {
					t.Fatalf("%s n=%d k=%d: WireBytes not additive", codec.Name(), n, k)
				}
				if got := codec.EncodeTo(codec.Encode(src[:k]), src[k:]); !bytes.Equal(got, whole) {
					t.Fatalf("%s n=%d: encoding split at %d differs from the whole", codec.Name(), n, k)
				}
				dec := make([]float32, n)
				if err := codec.Decode(dec[:k], whole[:wk]); err != nil {
					t.Fatal(err)
				}
				if err := codec.Decode(dec[k:], whole[wk:]); err != nil {
					t.Fatal(err)
				}
				add := slices.Clone(accum)
				if err := codec.DecodeAdd(add[:k], whole[:wk]); err != nil {
					t.Fatal(err)
				}
				if err := codec.DecodeAdd(add[k:], whole[wk:]); err != nil {
					t.Fatal(err)
				}
				for i := range dec {
					if math.Float32bits(dec[i]) != math.Float32bits(wantDec[i]) {
						t.Fatalf("%s n=%d: decode split at %d: element %d = %#08x, whole %#08x",
							codec.Name(), n, k, i, math.Float32bits(dec[i]), math.Float32bits(wantDec[i]))
					}
					if math.Float32bits(add[i]) != math.Float32bits(wantAdd[i]) {
						t.Fatalf("%s n=%d: decode-add split at %d: element %d = %#08x, whole %#08x",
							codec.Name(), n, k, i, math.Float32bits(add[i]), math.Float32bits(wantAdd[i]))
					}
				}
			}
		}
	}
}
