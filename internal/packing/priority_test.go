package packing

import (
	"testing"

	"aiacc/compress"
	"aiacc/internal/gradsync"
	"aiacc/model"
)

// TestPackerGranularityUnits pins the bytes→elements conversion at the
// packer boundary: the constructor takes the auto-tuner's granularity in
// pre-codec fp32 *bytes*, the packer works in *elements* (bytes/4). A unit
// mismatch here would quietly change every unit size by 4x.
func TestPackerGranularityUnits(t *testing.T) {
	p, err := NewPacker(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.GranularityElems(); got != 2<<20 {
		t.Errorf("GranularityElems() = %d, want %d (8 MiB / 4 bytes per fp32)", got, 2<<20)
	}
	if got := p.GranularityBytes(); got != 8<<20 {
		t.Errorf("GranularityBytes() = %d, want %d", got, 8<<20)
	}
	if p.Granularity() != p.GranularityElems() {
		t.Errorf("Granularity() = %d must alias GranularityElems() = %d",
			p.Granularity(), p.GranularityElems())
	}
	// The intended engine-facing behavior: a 4 MiB granularity packs units
	// of at most 1 Mi elements.
	p4, _ := NewPacker(4 << 20)
	byID := func(id int) (gradsync.Gradient, error) {
		return gradsync.Gradient{ID: id, Elems: 3 << 20}, nil
	}
	units, err := p4.Pack(byID, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("3 Mi elements at 4 MiB granularity: got %d units, want 3", len(units))
	}
	for _, u := range units {
		if u.Elems > 1<<20 {
			t.Errorf("unit %d has %d elements, granularity is %d", u.Seq, u.Elems, 1<<20)
		}
	}
}

// TestUnitWireBytes pins the logical-vs-wire size split: Bytes() is the
// pre-codec fp32 payload, WireBytes(codec) the encoded size the network
// actually carries.
func TestUnitWireBytes(t *testing.T) {
	u := Unit{Elems: 1000}
	if got := u.Bytes(); got != 4000 {
		t.Errorf("Bytes() = %d, want 4000", got)
	}
	if got := u.WireBytes(compress.FP32{}); got != 4000 {
		t.Errorf("WireBytes(fp32) = %d, want 4000", got)
	}
	if got := u.WireBytes(compress.FP16{}); got != 2000 {
		t.Errorf("WireBytes(fp16) = %d, want 2000", got)
	}
}

// zooRegistry registers every parameter of a zoo model with its forward
// layer index as priority, the way train.NewTrainer does.
func zooRegistry(t *testing.T, m model.Model) []gradsync.Gradient {
	t.Helper()
	r := gradsync.NewRegistry()
	for _, p := range m.Params() {
		if err := r.RegisterWithPriority(p.Name, p.Elems, p.Layer); err != nil {
			t.Fatalf("%s: register %s: %v", m.Name, p.Name, err)
		}
	}
	grads, err := r.Finalize()
	if err != nil {
		t.Fatalf("%s: finalize: %v", m.Name, err)
	}
	return grads
}

// shuffled returns ids in a deterministic pseudo-random order — one rank's
// local readiness order.
func shuffled(ids []int, seed uint64) []int {
	out := append([]int(nil), ids...)
	s := seed
	for i := len(out) - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int(s>>33) % (i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// layoutKey folds the full (Seq, Priority, Fragments) layout into an FNV-1a
// hash — cheap to compare for zoo-sized models with tens of thousands of
// units.
func layoutKey(units []Unit) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int) {
		h = (h ^ uint64(uint(v))) * prime
	}
	for _, u := range units {
		mix(u.Seq)
		mix(u.Priority)
		for _, f := range u.Fragments {
			mix(f.GradID)
			mix(f.Offset)
			mix(f.Elems)
		}
	}
	return h
}

// TestPackPriorityZooProperty checks the scheduler's packing invariants over
// every model-zoo entry at several granularities:
//
//  1. exactly-once coverage — the units cover every agreed gradient element
//     exactly once, however skewed the layer sizes are;
//  2. implicit agreement — ranks passing the same agreed set in different
//     local orders derive bit-identical (Seq, Priority, Fragments) layouts
//     without communication;
//  3. reverse-topological order — units come out in non-decreasing priority
//     (earliest-forward-needed gradients first), and fragments within the
//     batch never regress in (priority, id).
func TestPackPriorityZooProperty(t *testing.T) {
	grans := []int64{16 << 10, 256 << 10, 4 << 20}
	for _, m := range model.All() {
		grads := zooRegistry(t, m)
		byID := func(id int) (gradsync.Gradient, error) {
			if id < 0 || id >= len(grads) {
				return gradsync.Gradient{}, gradsync.ErrUnknownGradient
			}
			return grads[id], nil
		}
		ids := make([]int, len(grads))
		for i := range ids {
			ids[i] = i
		}
		for _, gran := range grans {
			p, err := NewPacker(gran)
			if err != nil {
				t.Fatal(err)
			}
			units, err := p.Pack(byID, ids, 0)
			if err != nil {
				t.Fatalf("%s gran %d: %v", m.Name, gran, err)
			}

			// 1: exactly-once coverage.
			covered := make(map[int]int, len(grads)) // id -> elements seen
			for _, u := range units {
				sum := 0
				for _, f := range u.Fragments {
					covered[f.GradID] += f.Elems
					sum += f.Elems
				}
				if sum != u.Elems {
					t.Fatalf("%s gran %d unit %d: fragments sum %d != Elems %d",
						m.Name, gran, u.Seq, sum, u.Elems)
				}
				if u.Elems > p.GranularityElems() {
					t.Fatalf("%s gran %d unit %d: %d elements exceeds granularity %d",
						m.Name, gran, u.Seq, u.Elems, p.GranularityElems())
				}
			}
			for _, g := range grads {
				if covered[g.ID] != g.Elems {
					t.Fatalf("%s gran %d: gradient %d covered %d of %d elements",
						m.Name, gran, g.ID, covered[g.ID], g.Elems)
				}
			}

			// 2: identical layouts from any local arrival order.
			want := layoutKey(units)
			for seed := uint64(1); seed <= 3; seed++ {
				u2, err := p.Pack(byID, shuffled(ids, seed), 0)
				if err != nil {
					t.Fatal(err)
				}
				if layoutKey(u2) != want {
					t.Fatalf("%s gran %d: layout differs across rank arrival orders (seed %d)",
						m.Name, gran, seed)
				}
			}

			// 3: reverse-topological order.
			prevPrio, prevID := -1, -1
			for _, u := range units {
				if u.Seq > 0 && u.Priority < units[u.Seq-1].Priority {
					t.Fatalf("%s gran %d: unit %d priority %d regresses below unit %d's %d",
						m.Name, gran, u.Seq, u.Priority, u.Seq-1, units[u.Seq-1].Priority)
				}
				for _, f := range u.Fragments {
					g := grads[f.GradID]
					if g.Priority < prevPrio || (g.Priority == prevPrio && g.ID < prevID) {
						t.Fatalf("%s gran %d: fragment of gradient %d (prio %d) regresses in canonical order",
							m.Name, gran, g.ID, g.Priority)
					}
					prevPrio, prevID = g.Priority, g.ID
				}
			}
		}
	}
}
