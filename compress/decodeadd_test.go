package compress

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"aiacc/tensor"
)

// operandSpecials are the values on which a fused accumulate could part from
// the two-step form: NaNs with payloads (either operand, or both), opposite
// infinities, and -0, which only survives a sum with another -0.
var operandSpecials = []uint32{
	0x7fc00000, 0xffc12345, 0x7f800001, 0xffbfffff,
	0x7f800000, 0xff800000, 0x80000000, 0x00000000,
}

func fillOperand(rng *rand.Rand, dst []float32) {
	for i := range dst {
		if rng.Intn(6) == 0 {
			dst[i] = math.Float32frombits(operandSpecials[rng.Intn(len(operandSpecials))])
		} else {
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

// DecodeAdd is specified as Decode into scratch followed by tensor.AddSlice;
// every codec must match that bit for bit, specials in either operand
// included, for payloads its own encoder produced and for payloads carrying
// bits it never would (a peer's NaN payloads arrive as they are).
func TestDecodeAddMatchesDecodeThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range codecs() {
		for _, n := range []int{0, 1, 7, 8, 9, 64, 1000, 9001} {
			for trial := 0; trial < 4; trial++ {
				src := make([]float32, n)
				fillOperand(rng, src)
				buf := c.Encode(src)
				if trial%2 == 1 {
					smudge(rng, c, buf)
				}
				got := make([]float32, n)
				fillOperand(rng, got)
				want := append([]float32(nil), got...)

				scratch := make([]float32, n)
				if err := c.Decode(scratch, buf); err != nil {
					t.Fatalf("%s n=%d: Decode: %v", c.Name(), n, err)
				}
				tensor.AddSlice(want, scratch)
				if err := c.DecodeAdd(got, buf); err != nil {
					t.Fatalf("%s n=%d: DecodeAdd: %v", c.Name(), n, err)
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s n=%d element %d: DecodeAdd %#08x, Decode+AddSlice %#08x (wire value %#08x)",
							c.Name(), n, i, math.Float32bits(got[i]), math.Float32bits(want[i]),
							math.Float32bits(scratch[i]))
					}
				}
			}
		}
	}
}

// smudge overwrites a few encoded values with special bit patterns without
// changing the payload's shape.
func smudge(rng *rand.Rand, c Codec, buf []byte) {
	halves := []uint16{0x7c01, 0xfe00, 0x7dff, 0xfc00, 0x7c00, 0x8000, 0x0001, 0x83ff}
	for k := 0; k < 1+len(buf)/40; k++ {
		switch c.(type) {
		case FP16:
			if len(buf) >= 2 {
				binary.LittleEndian.PutUint16(buf[2*rng.Intn(len(buf)/2):], halves[rng.Intn(len(halves))])
			}
		case FP32:
			if len(buf) >= 4 {
				binary.LittleEndian.PutUint32(buf[4*rng.Intn(len(buf)/4):], operandSpecials[rng.Intn(len(operandSpecials))])
			}
		}
	}
}

// A payload of the wrong shape is rejected by DecodeAdd exactly as by Decode,
// before dst is touched.
func TestDecodeAddRejectsCorruptPayload(t *testing.T) {
	src := []float32{1, -2, 3, -4, 5, -6, 7, -8, 9}
	cases := []struct {
		codec Codec
		name  string
		buf   []byte
	}{
		{FP32{}, "short", FP32{}.Encode(src)[:4*len(src)-1]},
		{FP32{}, "long", append(FP32{}.Encode(src), 0)},
		{FP32{}, "empty", nil},
		{FP16{}, "short", FP16{}.Encode(src)[:2*len(src)-1]},
		{FP16{}, "long", append(FP16{}.Encode(src), 0)},
		{FP16{}, "fp32 payload", FP32{}.Encode(src)},
	}
	for _, c := range cases {
		dst := append([]float32(nil), src...)
		if err := c.codec.DecodeAdd(dst, c.buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s %s: DecodeAdd error = %v, want ErrCorrupt", c.codec.Name(), c.name, err)
		}
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(src[i]) {
				t.Errorf("%s %s: DecodeAdd wrote dst[%d] before failing", c.codec.Name(), c.name, i)
				break
			}
		}
		if err := c.codec.Decode(make([]float32, len(src)), c.buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s %s: Decode error = %v, want ErrCorrupt", c.codec.Name(), c.name, err)
		}
	}
}
