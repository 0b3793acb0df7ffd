package collective

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
	"aiacc/transport/shmnet"
)

// runShmRanks executes fn once per rank over a fresh shared-memory network,
// whose ring lends received frames and reserves send slots in place.
func runShmRanks(t *testing.T, size int, fn func(c *mpi.Comm) error) {
	t.Helper()
	net, err := shmnet.New(size, 1, shmnet.WithOpTimeout(10*time.Second))
	if err != nil {
		t.Fatalf("shmnet.New: %v", err)
	}
	runNetRanks(t, net, fn)
}

// cutPieces copies data into separately allocated pieces split at cuts
// (ascending; a repeated cut makes an empty piece).
func cutPieces(data []float32, cuts []int) [][]float32 {
	var pieces [][]float32
	lo := 0
	for _, c := range append(slices.Clone(cuts), len(data)) {
		pieces = append(pieces, slices.Clone(data[lo:c]))
		lo = c
	}
	return pieces
}

// splitBounds appends to cuts the bounds of the parts chunks of [lo, lo+n)
// and of every wire segment inside them, calling inner on each chunk.
func splitBounds(cuts []int, lo, n, parts, segElems int, inner func(cuts []int, lo, n int) []int) []int {
	for i := 0; i < parts; i++ {
		cLo, cHi := chunkBounds(n, parts, i)
		cuts = append(cuts, lo+cLo)
		segs := numSegments(cHi-cLo, int64(4*segElems))
		for s := 0; s < segs; s++ {
			sLo, _ := chunkBounds(cHi-cLo, segs, s)
			cuts = append(cuts, lo+cLo+sLo)
		}
		if inner != nil {
			cuts = inner(cuts, lo+cLo, cHi-cLo)
		}
	}
	return cuts
}

// fragmentations returns named cut sets of n elements: one piece; every
// element its own piece; random cuts with runs of one-element pieces and
// empty pieces, different on every rank; and a cut on every boundary the
// schedule works at (the blocks, chunks and segments of sched).
func fragmentations(rank, n int, sched []int) map[string][]int {
	rng := rand.New(rand.NewSource(int64(rank*7919 + n)))
	var random []int
	for i := 1; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			random = append(random, i)
		case 1: // a run of one-element pieces
			for j := 0; j < 4 && i < n; j++ {
				random = append(random, i)
				i++
			}
		case 2: // an empty piece
			random = append(random, i, i)
		}
	}
	singles := make([]int, 0, n)
	for i := 1; i < n; i++ {
		singles = append(singles, i)
	}
	sorted := slices.Clone(sched)
	slices.Sort(sorted)
	return map[string][]int{
		"one piece":  nil,
		"singletons": singles,
		"random":     random,
		"boundaries": slices.Compact(sorted),
	}
}

// pieceInput is rank's input for one case: values that fp16 rounds, so a
// codec call that splits in the wrong place shows.
func pieceInput(rank, n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed*31 + int64(rank)))
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

// The ring over a unit's pieces must be bit-identical to the ring over the
// gathered copy: the reduce-scatter, the all-gather and the whole
// all-reduce, under fp32 and fp16, sum and max, scaled, on 2–5 ranks of the
// shared-memory transport (lent and reserved frames straddle the pieces),
// for one-element pieces, empty pieces, random cuts that differ per rank and
// cuts on every chunk and segment boundary.
func TestPiecesRingMatchesGathered(t *testing.T) {
	const segBytes = 64 // 16 elements: many segments per chunk
	for size := 2; size <= 5; size++ {
		runShmRanks(t, size, func(c *mpi.Comm) error {
			seed := int64(0)
			for _, codec := range []compress.Codec{compress.FP32{}, compress.FP16{}} {
				for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMax} {
					for _, n := range []int{3, 997} {
						seed++
						sched := splitBounds(nil, 0, n, size, segBytes/4, nil)
						frags := fragmentations(c.Rank(), n, sched)
						for _, fname := range []string{"one piece", "singletons", "random", "boundaries"} {
							opts := []Option{WithSegmentBytes(segBytes), WithScale(1 / float32(size))}
							o := buildOptions(opts)
							in := pieceInput(c.Rank(), n, seed)
							name := fmt.Sprintf("size=%d %s %v n=%d %s rank %d", size, codec.Name(), op, n, fname, c.Rank())
							check := func(entry string, pieces [][]float32, want []float32) {
								if got := slices.Concat(pieces...); len(got) != len(want) {
									t.Errorf("%s %s: %d elements, want %d", name, entry, len(got), len(want))
								} else if i := sameBits(got, want); i >= 0 {
									t.Errorf("%s %s: element %d = %v, gathered %v", name, entry, i, got[i], want[i])
								}
							}

							want := slices.Clone(in)
							if err := RingAllReduceCodec(c, 0, want, op, codec, opts...); err != nil {
								return err
							}
							pieces := cutPieces(in, frags[fname])
							if err := RingAllReducePieces(c, 0, pieces, op, codec, opts...); err != nil {
								return err
							}
							check("all-reduce", pieces, want)

							want = slices.Clone(in)
							if _, err := ReduceScatterCodec(c, 0, want, op, codec, opts...); err != nil {
								return err
							}
							pieces = cutPieces(in, frags[fname])
							if err := Unwind(c, 0, ring(c, 0, wholeWindow(pieces), op, codec, phaseReduceScatter, o)); err != nil {
								return err
							}
							check("reduce-scatter", pieces, want)

							want = slices.Clone(in)
							if err := AllGatherCodec(c, 0, want, codec, opts...); err != nil {
								return err
							}
							pieces = cutPieces(in, frags[fname])
							if err := Unwind(c, 0, ring(c, 0, wholeWindow(pieces), op, codec, phaseAllGather, o)); err != nil {
								return err
							}
							check("all-gather", pieces, want)
						}
					}
				}
			}
			return nil
		})
	}
}

// The two-level schedule over a unit's pieces must be bit-identical to the
// schedule over the gathered copy, on a two-tier network (shared-memory
// lanes inside a host): one block and two pipelined blocks, with cuts on
// every block, node-chunk, shard-chunk and segment boundary besides the
// generic fragmentations.
func TestPiecesHierarchicalMatchesGathered(t *testing.T) {
	const segBytes = 256
	for _, shape := range [][2]int{{2, 2}, {1, 3}} {
		hosts, perHost := shape[0], shape[1]
		runTwoTierRanks(t, hosts, perHost, 1, func(c *mpi.Comm) error {
			seed := int64(0)
			for _, codec := range []compress.Codec{compress.FP32{}, compress.FP16{}} {
				for _, op := range []tensor.ReduceOp{tensor.OpSum, tensor.OpMax} {
					for _, n := range []int{997, 5000} {
						seed++
						blocks := 1
						if n >= twoLevelPipelineMin {
							blocks = 2
						}
						shards := func(cuts []int, lo, n int) []int {
							return splitBounds(cuts, lo, n, hosts, segBytes/4, nil)
						}
						nodeChunks := func(cuts []int, lo, n int) []int {
							return splitBounds(cuts, lo, n, perHost, segBytes/4, shards)
						}
						sched := splitBounds(nil, 0, n, blocks, segBytes/4, nodeChunks)
						frags := fragmentations(c.Rank(), n, sched)
						for _, fname := range []string{"one piece", "singletons", "random", "boundaries"} {
							opts := []Option{WithSegmentBytes(segBytes), WithScale(1 / float32(c.Size()))}
							in := pieceInput(c.Rank(), n, seed)
							want := slices.Clone(in)
							if err := HierarchicalAllReduceCodec(c, 0, perHost, want, op, codec, opts...); err != nil {
								return err
							}
							pieces := cutPieces(in, frags[fname])
							if err := HierarchicalAllReducePieces(c, 0, perHost, pieces, op, codec, opts...); err != nil {
								return err
							}
							got := slices.Concat(pieces...)
							if i := sameBits(got, want); i >= 0 {
								t.Errorf("%dx%d %s %v n=%d %s rank %d: element %d = %v, gathered %v",
									hosts, perHost, codec.Name(), op, n, fname, c.Rank(), i, got[i], want[i])
							}
						}
					}
				}
			}
			return nil
		})
	}
}
