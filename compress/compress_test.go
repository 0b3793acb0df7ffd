package compress

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func codecs() []Codec { return []Codec{FP32{}, FP16{}} }

func TestWireBytes(t *testing.T) {
	if (FP32{}).WireBytes(100) != 400 {
		t.Error("fp32 wire size wrong")
	}
	if (FP16{}).WireBytes(100) != 200 {
		t.Error("fp16 wire size wrong")
	}
}

func TestRoundTripExactValues(t *testing.T) {
	src := []float32{0, 1, -1, 0.5, 1024, -0.25}
	for _, c := range codecs() {
		buf := c.Encode(src)
		if int64(len(buf)) != c.WireBytes(len(src)) {
			t.Errorf("%s: encoded %d bytes, want %d", c.Name(), len(buf), c.WireBytes(len(src)))
		}
		dst := make([]float32, len(src))
		if err := c.Decode(dst, buf); err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		for i := range src {
			if dst[i] != src[i] {
				t.Errorf("%s: element %d = %v, want %v", c.Name(), i, dst[i], src[i])
			}
		}
	}
}

func TestDecodeSizeMismatch(t *testing.T) {
	for _, c := range codecs() {
		buf := c.Encode([]float32{1, 2, 3})
		if err := c.Decode(make([]float32, 2), buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: mismatch error = %v", c.Name(), err)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, c := range codecs() {
		buf := c.Encode(nil)
		if len(buf) != 0 {
			t.Errorf("%s: empty encode produced %d bytes", c.Name(), len(buf))
		}
		if err := c.Decode(nil, buf); err != nil {
			t.Errorf("%s: empty decode: %v", c.Name(), err)
		}
	}
}

// Property: fp32 round-trips bit-exactly; fp16 round-trips within half
// precision for in-range values.
func TestQuickRoundTrip(t *testing.T) {
	fp32 := func(v float32) bool {
		if math.IsNaN(float64(v)) {
			return true
		}
		dst := make([]float32, 1)
		if err := (FP32{}).Decode(dst, (FP32{}).Encode([]float32{v})); err != nil {
			return false
		}
		return dst[0] == v
	}
	if err := quick.Check(fp32, nil); err != nil {
		t.Error(err)
	}
	fp16 := func(v float32) bool {
		av := math.Abs(float64(v))
		if av > 65504 || av < 1e-4 || math.IsNaN(float64(v)) {
			return true
		}
		dst := make([]float32, 1)
		if err := (FP16{}).Decode(dst, (FP16{}).Encode([]float32{v})); err != nil {
			return false
		}
		return math.Abs(float64(dst[0])-float64(v))/av <= 1.0/1024
	}
	if err := quick.Check(fp16, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
