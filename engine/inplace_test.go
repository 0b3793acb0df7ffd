package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aiacc/collective"
	"aiacc/compress"
	"aiacc/internal/gradsync"
	"aiacc/internal/packing"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport"
)

// pooledPathReference computes, for every rank, what the copy-out / reduce /
// copy-back path produces for the given unit spans of inputs, a rank's
// gradients laid end to end in packing order: each span is gathered into a
// buffer of its own, all-reduced (ring, or the two-level schedule under
// Hierarchical) and averaged with the engine's codec, segment size and
// scale, and scattered back.
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
				seg, scale := collective.WithSegmentBytes(cfg.SegmentBytes), collective.WithScale(inv)
				var err error
				if cfg.Algorithm == Hierarchical {
					err = collective.HierarchicalAllReduceCodec(c, 0, cfg.GPUsPerNode, buf, tensor.OpSum, cfg.Codec, seg, scale)
				} else {
					err = collective.RingAllReduceCodec(c, 0, buf, tensor.OpSum, cfg.Codec, seg, scale)
				}
				if err != nil {
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
// tensor itself. The result must be bit-identical to the gathered-copy path,
// for the lossless and the lossy codec.
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

// multiFragmentProfile is listed in packing order (layer = index). At a
// granularity of 1024 elements its units merge several gradients, split the
// 2500-element one across three units that it shares with its neighbours,
// and hold one-element gradients.
func multiFragmentProfile() []priorityParam {
	elems := []int{300, 1, 500, 223, 2500, 7, 1, 600, 1200, 33}
	params := make([]priorityParam, len(elems))
	for i, n := range elems {
		params[i] = priorityParam{name: fmt.Sprintf("g%02d", i), elems: n, layer: i}
	}
	return params
}

// unitSpans packs params at granElems per unit, as the engine does when all
// of them are agreed in one round, and returns every unit as its span of the
// params laid end to end. It reports whether some unit merges gradients.
func unitSpans(t *testing.T, params []priorityParam, granElems int) ([][2]int, bool) {
	t.Helper()
	start := make([]int, len(params))
	ids := make([]int, len(params))
	for i := 1; i < len(params); i++ {
		start[i] = start[i-1] + params[i-1].elems
	}
	for i := range ids {
		ids[i] = i
	}
	packer, err := packing.NewPacker(4 * int64(granElems))
	if err != nil {
		t.Fatal(err)
	}
	units, err := packer.Pack(func(id int) (gradsync.Gradient, error) {
		p := params[id]
		return gradsync.Gradient{ID: id, Name: p.name, Elems: p.elems, Priority: p.layer}, nil
	}, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	var spans [][2]int
	merged := false
	for _, u := range units {
		lo := start[u.Fragments[0].GradID] + u.Fragments[0].Offset
		spans = append(spans, [2]int{lo, lo + u.Elems})
		merged = merged || len(u.Fragments) > 1
	}
	return spans, merged
}

// A unit that merges several gradients is reduced in the pushed tensors,
// the collective running over the unit's fragments where they lie. The
// result must be bit-identical to gathering each unit into a buffer of its
// own, reducing it and scattering it back, for the lossless and the lossy
// codec, under the flat ring at every dispatcher depth (depth 2 runs its
// frames through the tagging multiplexer) and under the two-level schedule.
func TestMultiFragmentUnitsReduceInPlaceBitIdentical(t *testing.T) {
	const size = 4
	const granElems = 1024
	params := multiFragmentProfile()
	total := 0
	for _, p := range params {
		total += p.elems
	}
	spans, merged := unitSpans(t, params, granElems)
	if !merged {
		t.Fatal("profile packs no multi-fragment unit")
	}
	type variant struct {
		algo  Algorithm
		depth int
	}
	variants := []variant{{Ring, 0}, {Ring, 1}, {Ring, 2}, {Hierarchical, 0}, {Hierarchical, 1}}
	for _, codec := range []compress.Codec{compress.FP32{}, compress.FP16{}} {
		rng := rand.New(rand.NewSource(int64(len(codec.Name()))))
		inputs := make([][]float32, size)
		for r := range inputs {
			inputs[r] = make([]float32, total)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.NormFloat64())
			}
		}
		for _, v := range variants {
			cfg := DefaultConfig()
			cfg.Streams = 2
			cfg.GranularityBytes = 4 * granElems
			cfg.MinSyncBytes = 4 * int64(total) // one agreement round: the layout of unitSpans
			cfg.SegmentBytes = 512
			cfg.Codec = codec
			cfg.Algorithm = v.algo
			cfg.GPUsPerNode = 2
			cfg.PriorityDepth = v.depth
			want := pooledPathReference(t, cfg, inputs, spans)
			name := fmt.Sprintf("%s %v depth %d", codec.Name(), v.algo, v.depth)

			runPriorityEngines(t, size, cfg, params, nil, func(e *Engine) error {
				flat := append([]float32(nil), inputs[e.Rank()]...)
				off := 0
				for _, p := range params {
					// Each gradient its own tensor, over its own storage.
					grad := tensor.FromSlice(flat[off : off+p.elems : off+p.elems])
					if err := e.PushGradient(p.name, grad); err != nil {
						return err
					}
					off += p.elems
				}
				if err := e.WaitIteration(); err != nil {
					return err
				}
				if units := e.Stats().Units; units != int64(len(spans)) {
					t.Errorf("%s: %d units, want %d", name, units, len(spans))
				}
				for i, g := range flat {
					if w := want[e.Rank()][i]; math.Float32bits(g) != math.Float32bits(w) {
						t.Errorf("%s rank %d: element %d = %#08x, gathered-copy path %#08x",
							name, e.Rank(), i, math.Float32bits(g), math.Float32bits(w))
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
