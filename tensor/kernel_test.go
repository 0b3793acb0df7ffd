package tensor

import (
	"errors"
	"math/rand"
	"testing"
)

// The deprecated alias must match Apply exactly for every op, at sizes that
// straddled the retired worker pool's 16 Ki-element fan-out threshold.
func TestApplyParallelMatchesScalar(t *testing.T) {
	sizes := []int{0, 1, 7, 1000,
		16383, 16384, 16385, 49169}
	ops := []ReduceOp{OpSum, OpMin, OpMax}
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		base := make([]float32, n)
		src := make([]float32, n)
		for i := range base {
			base[i] = float32(rng.NormFloat64())
			src[i] = float32(rng.NormFloat64())
		}
		for _, op := range ops {
			want := append([]float32(nil), base...)
			if err := op.Apply(want, src); err != nil {
				t.Fatalf("Apply(%v, n=%d): %v", op, n, err)
			}
			got := append([]float32(nil), base...)
			if err := op.ApplyParallel(got, src); err != nil {
				t.Fatalf("ApplyParallel(%v, n=%d): %v", op, n, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %v n=%d element %d: parallel %v != scalar %v",
						op, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestApplyParallelErrors(t *testing.T) {
	if err := OpSum.ApplyParallel([]float32{1}, []float32{1, 2}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("length mismatch error = %v", err)
	}
	if err := ReduceOp(0).ApplyParallel([]float32{1}, []float32{1}); err == nil {
		t.Error("zero-value ReduceOp must be rejected")
	}
	if err := OpSum.ApplyParallel(nil, nil); err != nil {
		t.Errorf("empty apply should succeed, got %v", err)
	}
}

// Concurrent callers (the engine's stream workers) must not interfere.
func TestApplyParallelConcurrent(t *testing.T) {
	const goroutines = 8
	n := 32771
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			dst := make([]float32, n)
			src := make([]float32, n)
			for i := range src {
				dst[i] = float32(rng.NormFloat64())
				src[i] = float32(rng.NormFloat64())
			}
			want := append([]float32(nil), dst...)
			AddSlice(want, src)
			if err := OpSum.ApplyParallel(dst, src); err != nil {
				done <- err
				return
			}
			for i := range want {
				if dst[i] != want[i] {
					done <- errors.New("parallel result diverged from scalar")
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
