package packing

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aiacc/internal/gradsync"
)

// fixedGrads returns a byID lookup over gradients with the given sizes.
func fixedGrads(elems ...int) func(id int) (gradsync.Gradient, error) {
	return func(id int) (gradsync.Gradient, error) {
		if id < 0 || id >= len(elems) {
			return gradsync.Gradient{}, fmt.Errorf("no gradient %d", id)
		}
		return gradsync.Gradient{ID: id, Name: fmt.Sprintf("g%d", id), Elems: elems[id]}, nil
	}
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestNewPackerValidation(t *testing.T) {
	if _, err := NewPacker(0); !errors.Is(err, ErrBadGranularity) {
		t.Errorf("granularity 0 error = %v", err)
	}
	if _, err := NewPacker(3); !errors.Is(err, ErrBadGranularity) {
		t.Errorf("sub-element granularity error = %v", err)
	}
	p, err := NewPacker(4096)
	if err != nil {
		t.Fatal(err)
	}
	units, err := p.Pack(fixedGrads(2048), allIDs(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 || units[0].Elems != 1024 || units[1].Elems != 1024 {
		t.Errorf("2048 elements at 4096 bytes: units %+v, want two of 1024 elements", units)
	}
}

func TestPackMergesSmallTensors(t *testing.T) {
	p, _ := NewPacker(40) // 10 elements per unit
	units, err := p.Pack(fixedGrads(3, 4, 2, 5), allIDs(4), 0)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	// 3+4+2 = 9 fits unit 0; 5 goes to unit 1.
	if len(units) != 2 {
		t.Fatalf("got %d units: %+v", len(units), units)
	}
	if units[0].Elems != 9 || len(units[0].Fragments) != 3 {
		t.Errorf("unit 0 = %+v", units[0])
	}
	if units[1].Elems != 5 || units[1].Fragments[0].GradID != 3 {
		t.Errorf("unit 1 = %+v", units[1])
	}
	if units[0].Seq != 0 || units[1].Seq != 1 {
		t.Error("sequence numbers wrong")
	}
	if units[1].Bytes() != 20 {
		t.Errorf("unit 1 bytes = %d, want 20", units[1].Bytes())
	}
}

func TestPackSplitsLargeTensor(t *testing.T) {
	p, _ := NewPacker(40) // 10 elements per unit
	units, err := p.Pack(fixedGrads(25), allIDs(1), 5)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if len(units) != 3 {
		t.Fatalf("got %d units, want 3", len(units))
	}
	wantSpans := [][3]int{{0, 0, 10}, {0, 10, 10}, {0, 20, 5}}
	for i, w := range wantSpans {
		f := units[i].Fragments[0]
		if f.GradID != w[0] || f.Offset != w[1] || f.Elems != w[2] {
			t.Errorf("unit %d fragment = %+v, want %v", i, f, w)
		}
		if units[i].Seq != 5+i {
			t.Errorf("unit %d seq = %d, want %d", i, units[i].Seq, 5+i)
		}
	}
}

func TestPackMixedSplitAndMerge(t *testing.T) {
	p, _ := NewPacker(32) // 8 elements per unit
	// 5 fills most of unit 0; 12 spans units 0-2 (3 into unit 0, 8 into
	// unit 1, 1 into unit 2); 2 joins unit 2.
	units, err := p.Pack(fixedGrads(5, 12, 2), allIDs(3), 0)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if len(units) != 3 {
		t.Fatalf("got %d units: %+v", len(units), units)
	}
	if units[0].Elems != 8 || units[1].Elems != 8 || units[2].Elems != 3 {
		t.Errorf("unit sizes = %d,%d,%d", units[0].Elems, units[1].Elems, units[2].Elems)
	}
	frags := make(map[int]int)
	for _, u := range units {
		for _, f := range u.Fragments {
			frags[f.GradID]++
		}
	}
	if frags[0] != 1 || frags[1] != 3 || frags[2] != 1 {
		t.Errorf("fragments per gradient = %v", frags)
	}
}

func TestPackEmptyAndOrder(t *testing.T) {
	p, _ := NewPacker(64)
	units, err := p.Pack(fixedGrads(4, 4), nil, 0)
	if err != nil || len(units) != 0 {
		t.Errorf("empty ready set: %v units, err %v", len(units), err)
	}
	// Ready ids out of ascending order are restored to the canonical
	// (priority, id) order — with equal priorities, ascending id — so every
	// rank derives the same layout regardless of local readiness order.
	units, err = p.Pack(fixedGrads(4, 4, 4), []int{2, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if units[0].Fragments[0].GradID != 0 || units[0].Fragments[1].GradID != 2 {
		t.Error("pack order must be canonical (priority, id) ascending")
	}
}

func TestPackUnknownGradient(t *testing.T) {
	p, _ := NewPacker(64)
	if _, err := p.Pack(fixedGrads(4), []int{7}, 0); err == nil {
		t.Error("unknown gradient must fail")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	p, _ := NewPacker(32)
	sizes := []int{5, 12, 2, 9}
	units, err := p.Pack(fixedGrads(sizes...), allIDs(len(sizes)), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Source tensors hold distinct values; destinations start zeroed.
	src := make(map[int][]float32, len(sizes))
	dst := make(map[int][]float32, len(sizes))
	for id, n := range sizes {
		src[id] = make([]float32, n)
		dst[id] = make([]float32, n)
		for i := range src[id] {
			src[id][i] = float32(id*1000 + i)
		}
	}
	srcLookup := func(id int) ([]float32, error) { return src[id], nil }
	dstLookup := func(id int) ([]float32, error) { return dst[id], nil }

	for _, u := range units {
		buf := make([]float32, u.Elems)
		if err := Gather(u, srcLookup, buf); err != nil {
			t.Fatalf("Gather unit %d: %v", u.Seq, err)
		}
		if err := Scatter(u, dstLookup, buf); err != nil {
			t.Fatalf("Scatter unit %d: %v", u.Seq, err)
		}
	}
	for id := range sizes {
		for i := range src[id] {
			if dst[id][i] != src[id][i] {
				t.Fatalf("gradient %d elem %d: got %v, want %v", id, i, dst[id][i], src[id][i])
			}
		}
	}
}

func TestGatherScatterErrors(t *testing.T) {
	u := Unit{Seq: 0, Fragments: []Fragment{{GradID: 0, Offset: 0, Elems: 4}}, Elems: 4}
	lookup := func(id int) ([]float32, error) { return make([]float32, 4), nil }
	if err := Gather(u, lookup, make([]float32, 3)); !errors.Is(err, ErrFragmentRange) {
		t.Errorf("short buffer gather error = %v", err)
	}
	if err := Scatter(u, lookup, make([]float32, 5)); !errors.Is(err, ErrFragmentRange) {
		t.Errorf("long buffer scatter error = %v", err)
	}
	badFrag := Unit{Seq: 0, Fragments: []Fragment{{GradID: 0, Offset: 2, Elems: 4}}, Elems: 4}
	if err := Gather(badFrag, lookup, make([]float32, 4)); !errors.Is(err, ErrFragmentRange) {
		t.Errorf("overrun fragment gather error = %v", err)
	}
	if err := Scatter(badFrag, lookup, make([]float32, 4)); !errors.Is(err, ErrFragmentRange) {
		t.Errorf("overrun fragment scatter error = %v", err)
	}
	failLookup := func(id int) ([]float32, error) { return nil, errors.New("boom") }
	if err := Gather(u, failLookup, make([]float32, 4)); err == nil {
		t.Error("lookup failure must propagate")
	}
}

// Properties that must hold for any gradient sizes and granularity:
//  1. every unit except possibly trailing ones is within granularity,
//  2. fragments tile each gradient exactly,
//  3. unit Elems equals the sum of its fragment lengths,
//  4. sequence numbers are consecutive.
func TestPackInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nGrads := 1 + rng.Intn(20)
		sizes := make([]int, nGrads)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(500)
		}
		gran := int64(4 * (1 + rng.Intn(300)))
		p, err := NewPacker(gran)
		if err != nil {
			t.Fatal(err)
		}
		start := rng.Intn(100)
		units, err := p.Pack(fixedGrads(sizes...), allIDs(nGrads), start)
		if err != nil {
			t.Fatal(err)
		}
		covered := make(map[int][]bool, nGrads)
		for id, n := range sizes {
			covered[id] = make([]bool, n)
		}
		for i, u := range units {
			if u.Seq != start+i {
				t.Fatalf("trial %d: unit %d seq = %d, want %d", trial, i, u.Seq, start+i)
			}
			if int64(u.Elems) > gran/4 {
				t.Fatalf("trial %d: unit %d has %d elems > granularity %d", trial, i, u.Elems, gran/4)
			}
			sum := 0
			for _, f := range u.Fragments {
				sum += f.Elems
				for e := f.Offset; e < f.Offset+f.Elems; e++ {
					if covered[f.GradID][e] {
						t.Fatalf("trial %d: gradient %d elem %d covered twice", trial, f.GradID, e)
					}
					covered[f.GradID][e] = true
				}
			}
			if sum != u.Elems {
				t.Fatalf("trial %d: unit %d Elems %d != fragment sum %d", trial, i, u.Elems, sum)
			}
		}
		for id := range covered {
			for e, ok := range covered[id] {
				if !ok {
					t.Fatalf("trial %d: gradient %d elem %d never packed", trial, id, e)
				}
			}
		}
	}
}
