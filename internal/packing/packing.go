// Package packing forms all-reduce units from ready gradients (§V-B).
//
// The optimal communication granularity depends on the network: too small
// and per-message latency dominates; too large and the unit cannot start
// until late gradients arrive, losing overlap. AIACC-Training therefore
// packs multiple small gradient tensors into one unit and splits large
// tensors across several units, targeting a granularity chosen by the
// auto-tuner.
//
// Units are formed deterministically from the agreed gradient ids in
// canonical (priority, id) order — reverse-topological with respect to the
// backward pass: the gradients the *next forward* needs first (low layer
// index, produced last by backprop) lead every batch. All workers derive
// identical unit layouts without further communication — the "implicit
// agreement on communication order" the paper relies on — because both the
// ids (name-sorted) and the priorities (model layer order) are identical on
// every worker. When no priorities are registered the canonical order
// degenerates to ascending id order, the original behavior.
//
// The canonical order is the same whether or not the engine's priority
// scheduler is enabled: scheduling changes *when* units are dispatched, never
// which elements share a unit, so fp32 results stay bit-identical across
// scheduler settings (ring reduction order is fixed by unit layout).
//
// The package also holds Stream, the per-stream state machine that decides
// when a packed unit starts; the live engine and the cluster simulator both
// dispatch through it.
package packing

import (
	"errors"
	"fmt"
	"sort"

	"aiacc/compress"
	"aiacc/internal/gradsync"
)

// ErrBadGranularity indicates a non-positive granularity.
var ErrBadGranularity = errors.New("packing: granularity must be positive")

// ErrFragmentRange indicates a fragment that does not fit its gradient or
// its unit buffer.
var ErrFragmentRange = errors.New("packing: fragment out of range")

// Fragment is a contiguous span of one gradient tensor placed inside a unit.
type Fragment struct {
	// GradID is the gradient's registry id.
	GradID int
	// Offset is the element offset within the gradient tensor.
	Offset int
	// Elems is the span length in elements.
	Elems int
}

// Span returns the fragment's range of data, its gradient's flat storage,
// with capacity clipped to the range.
func (f Fragment) Span(data []float32) ([]float32, error) {
	if f.Offset < 0 || f.Offset+f.Elems > len(data) {
		return nil, fmt.Errorf("%w: gradient %d span [%d,%d) of %d",
			ErrFragmentRange, f.GradID, f.Offset, f.Offset+f.Elems, len(data))
	}
	return data[f.Offset : f.Offset+f.Elems : f.Offset+f.Elems], nil
}

// Unit is one all-reduce unit: an ordered pack of fragments reduced together
// in a single collective operation.
type Unit struct {
	// Seq is the deterministic sequence number of the unit within the
	// iteration; all workers assign identical Seq values, which implicitly
	// fixes the communication order and stream assignment.
	Seq int
	// Fragments lists the gradient spans in buffer order.
	Fragments []Fragment
	// Elems is the total element count (= sum of fragment lengths).
	Elems int
	// Priority is the urgency class of the unit: the minimum gradient
	// priority among its fragments (fragments are packed in priority order,
	// so this is the first fragment's priority). Lower = the next forward
	// pass needs it sooner. Identical on every rank, like Seq.
	Priority int
}

// Bytes returns the unit's logical payload size: pre-codec fp32 bytes
// (Elems × 4). This is the "bytes reduced" notion used by granularity
// targets, engine stats and the aiacc_engine_bytes_reduced metric; it is NOT
// the wire size under a compressing codec — use WireBytes for that.
func (u Unit) Bytes() int64 { return int64(u.Elems) * 4 }

// WireBytes returns the unit's encoded size under the given codec — what one
// ring-step chunk of it actually costs on the network (fp16 halves it).
func (u Unit) WireBytes(codec compress.Codec) int64 { return codec.WireBytes(u.Elems) }

// Packer splits/merges gradients into units of a target granularity.
type Packer struct {
	granularity int // elements per unit
}

// NewPacker returns a packer with the given granularity in *bytes* of fp32
// payload (the auto-tuner's natural parameter). Internally the packer works
// in elements: granularityBytes/4, so a 4 MiB granularity packs 1 Mi-element
// units.
func NewPacker(granularityBytes int64) (*Packer, error) {
	if granularityBytes < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadGranularity, granularityBytes)
	}
	return &Packer{granularity: int(granularityBytes / 4)}, nil
}

// Pack forms units from the given gradients (must be indexable by the ids in
// readyIDs) in canonical (priority, id) ascending order, numbering them
// startSeq, startSeq+1, …. Every returned unit has at most granularity
// elements; a gradient larger than the granularity is split across
// consecutive units. readyIDs is not modified.
func (p *Packer) Pack(byID func(id int) (gradsync.Gradient, error), readyIDs []int, startSeq int) ([]Unit, error) {
	grads := make([]gradsync.Gradient, 0, len(readyIDs))
	ordered := true
	for _, id := range readyIDs {
		g, err := byID(id)
		if err != nil {
			return nil, fmt.Errorf("pack gradient %d: %w", id, err)
		}
		if n := len(grads); n > 0 {
			prev := grads[n-1]
			if g.Priority < prev.Priority || (g.Priority == prev.Priority && g.ID < prev.ID) {
				ordered = false
			}
		}
		grads = append(grads, g)
	}
	if !ordered {
		sort.Slice(grads, func(i, j int) bool {
			if grads[i].Priority != grads[j].Priority {
				return grads[i].Priority < grads[j].Priority
			}
			return grads[i].ID < grads[j].ID
		})
	}
	var units []Unit
	cur := Unit{Seq: startSeq}
	flush := func() {
		if cur.Elems > 0 {
			units = append(units, cur)
			cur = Unit{Seq: startSeq + len(units)}
		}
	}
	for _, g := range grads {
		// A gradient that fits within one unit is never split: if it does
		// not fit the current unit's remaining room, the unit is flushed
		// and the gradient starts the next one. Only gradients larger than
		// the granularity are broken into multiple units.
		if g.Elems <= p.granularity && cur.Elems+g.Elems > p.granularity {
			flush()
		}
		remaining := g.Elems
		offset := 0
		for remaining > 0 {
			room := p.granularity - cur.Elems
			if room == 0 {
				flush()
				room = p.granularity
			}
			if cur.Elems == 0 {
				cur.Priority = g.Priority
			}
			span := remaining
			if span > room {
				span = room
			}
			cur.Fragments = append(cur.Fragments, Fragment{GradID: g.ID, Offset: offset, Elems: span})
			cur.Elems += span
			offset += span
			remaining -= span
		}
	}
	flush()
	return units, nil
}

// Gather copies the unit's fragments out of the gradient tensors into buf,
// which must have exactly u.Elems elements. lookup returns the flat storage
// of a gradient tensor by id.
func Gather(u Unit, lookup func(id int) ([]float32, error), buf []float32) error {
	if len(buf) != u.Elems {
		return fmt.Errorf("%w: buffer %d elements, unit %d", ErrFragmentRange, len(buf), u.Elems)
	}
	pos := 0
	for _, f := range u.Fragments {
		src, err := lookup(f.GradID)
		if err != nil {
			return fmt.Errorf("gather gradient %d: %w", f.GradID, err)
		}
		span, err := f.Span(src)
		if err != nil {
			return err
		}
		copy(buf[pos:pos+f.Elems], span)
		pos += f.Elems
	}
	return nil
}

// Scatter copies the reduced unit buffer back into the gradient tensors —
// the unpack/regroup step after the all-reduce completes.
func Scatter(u Unit, lookup func(id int) ([]float32, error), buf []float32) error {
	if len(buf) != u.Elems {
		return fmt.Errorf("%w: buffer %d elements, unit %d", ErrFragmentRange, len(buf), u.Elems)
	}
	pos := 0
	for _, f := range u.Fragments {
		dst, err := lookup(f.GradID)
		if err != nil {
			return fmt.Errorf("scatter gradient %d: %w", f.GradID, err)
		}
		span, err := f.Span(dst)
		if err != nil {
			return err
		}
		copy(span, buf[pos:pos+f.Elems])
		pos += f.Elems
	}
	return nil
}
