package engine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"aiacc/collective"
	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// pooledPathReference computes, for every rank, what the copy-out / reduce /
// copy-back path produces for one gradient cut into the given unit spans:
// each span is gathered into a buffer of its own, ring all-reduced and
// averaged with the engine's codec, segment size and scale, and scattered
// back.
func pooledPathReference(t *testing.T, cfg Config, inputs [][]float32, spans [][2]int) [][]float32 {
	t.Helper()
	size := len(inputs)
	net, err := transport.NewMem(size, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	out := make([][]float32, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r] = append([]float32(nil), inputs[r]...)
		wg.Add(1)
		go func(c *mpi.Comm, data []float32) {
			defer wg.Done()
			inv := float32(1) / float32(size)
			for _, s := range spans {
				buf := append([]float32(nil), data[s[0]:s[1]]...)
				if err := collective.RingAllReduceCodec(c, 0, buf, tensor.OpSum, cfg.Codec,
					collective.WithSegmentBytes(cfg.SegmentBytes), collective.WithScale(inv)); err != nil {
					t.Errorf("reference rank %d: %v", c.Rank(), err)
					return
				}
				copy(data[s[0]:s[1]], buf)
			}
		}(mpi.NewWorld(ep), out[r])
	}
	wg.Wait()
	return out
}

// A unit made of a single fragment — a whole gradient of at most one
// granularity, or one slice of a split gradient — is reduced in the pushed
// tensor itself. The result must be bit-identical to the gathered-copy path
// that multi-fragment units still take, for the lossless and the lossy codec.
func TestSingleFragmentUnitsReduceInPlaceBitIdentical(t *testing.T) {
	const size = 4
	const granElems = 1024
	shapes := []struct {
		name  string
		elems int
	}{
		{"whole", granElems},
		{"below granularity", 1000},
		{"split", 5*granElems - 120},
	}
	for _, codec := range []compress.Codec{compress.FP32{}, compress.FP16{}} {
		for _, sh := range shapes {
			cfg := DefaultConfig()
			cfg.Streams = 2
			cfg.GranularityBytes = 4 * granElems
			cfg.SegmentBytes = 512 // two wire segments per ring chunk of a full unit
			cfg.Codec = codec

			rng := rand.New(rand.NewSource(int64(sh.elems)))
			inputs := make([][]float32, size)
			for r := range inputs {
				inputs[r] = make([]float32, sh.elems)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
				}
			}
			var spans [][2]int
			for lo := 0; lo < sh.elems; lo += granElems {
				spans = append(spans, [2]int{lo, min(lo+granElems, sh.elems)})
			}
			want := pooledPathReference(t, cfg, inputs, spans)

			runEngines(t, size, cfg, map[string]int{"g": sh.elems}, func(e *Engine) error {
				grad := tensor.FromSlice(append([]float32(nil), inputs[e.Rank()]...))
				if err := e.PushGradient("g", grad); err != nil {
					return err
				}
				if err := e.WaitIteration(); err != nil {
					return err
				}
				if units := e.Stats().Units; units != int64(len(spans)) {
					t.Errorf("%s %s: %d units, want %d single-fragment units", codec.Name(), sh.name, units, len(spans))
				}
				for i, g := range grad.Data() {
					if w := want[e.Rank()][i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Errorf("%s %s rank %d: element %d = %#08x, gathered-copy path %#08x",
							codec.Name(), sh.name, e.Rank(), i, math.Float32bits(g), math.Float32bits(w))
						break
					}
				}
				return nil
			})
		}
	}
}

// Under fp16 the all-gather carries the mean, not the sum: four ranks each
// pushing 20000 sum to 80000, above fp16's largest finite 65504, yet the mean
// is exactly representable and must come back as 20000, not ±Inf. The
// reduce-scatter hops still carry partial sums, up to 3·20000 here, so the
// bound is (n-1)·max|x| < 65504.
func TestFP16AverageOfLargeSumStaysFinite(t *testing.T) {
	const size, elems, x = 4, 1000, 20000
	for _, algo := range []Algorithm{Ring, Hierarchical} {
		cfg := DefaultConfig()
		cfg.Streams = 2
		cfg.Codec = compress.FP16{}
		cfg.Algorithm = algo
		cfg.GPUsPerNode = 2
		runEngines(t, size, cfg, map[string]int{"g": elems}, func(e *Engine) error {
			data := make([]float32, elems)
			for i := range data {
				data[i] = x
			}
			grad := tensor.FromSlice(data)
			if err := e.PushGradient("g", grad); err != nil {
				return err
			}
			if err := e.WaitIteration(); err != nil {
				return err
			}
			for i, g := range grad.Data() {
				if g != x {
					t.Errorf("%v rank %d: element %d = %v, want the mean %v", algo, e.Rank(), i, g, float32(x))
					break
				}
			}
			return nil
		})
	}
}
