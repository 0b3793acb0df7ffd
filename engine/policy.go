package engine

import "fmt"

// Algorithm selects the all-reduce algorithm.
type Algorithm int

// Supported all-reduce algorithms (§V-B).
const (
	// Ring is the flat bandwidth-optimal ring across all workers.
	Ring Algorithm = iota + 1
	// Hierarchical reduces within each node, rings across node leaders,
	// then broadcasts within nodes — the paper's "tree" all-reduce.
	Hierarchical
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// CoordinatorKind selects the gradient-readiness agreement protocol.
type CoordinatorKind int

// Supported coordinators.
const (
	// Decentralized is AIACC's min/AND ring all-reduce agreement.
	Decentralized CoordinatorKind = iota + 1
	// Master is the Horovod-style rank-0 coordinator baseline.
	Master
)

// String implements fmt.Stringer.
func (k CoordinatorKind) String() string {
	switch k {
	case Decentralized:
		return "decentralized"
	case Master:
		return "master"
	default:
		return fmt.Sprintf("CoordinatorKind(%d)", int(k))
	}
}

// Policy is the communication policy: what the live engine (Config) and the
// cluster simulator (cluster.Engine) both run, and what the auto-tuner
// (autotune.Params.Apply) sets. Each field means the same on both sides.
type Policy struct {
	// Streams is the number of concurrent communication streams.
	Streams int
	// GranularityBytes is the all-reduce unit size.
	GranularityBytes int64
	// SegmentBytes is the ring all-reduce wire-pipelining segment size (fp32
	// data bytes per wire frame); 0 means collective.DefaultSegmentBytes.
	SegmentBytes int64
	// MinSyncBytes is the bucket size that triggers a synchronization
	// round; 0 means GranularityBytes (SyncBytes).
	MinSyncBytes int64
	// PriorityDepth selects the dispatcher (DESIGN.md §10). 0 and 1 mean
	// one class: each stream runs its units one at a time in Seq order
	// (Algorithm 1's multi-stream pool). 2 gives each registered gradient
	// priority (RegisterWithPriority; reverse-topological for a model
	// registered in layer order) its own class: a unit preempts a less
	// urgent in-flight unit of its stream at the next wire-segment boundary.
	// Any other value is ErrBadConfig; coarser classes never beat one per
	// priority in the depth sweep (EXPERIMENTS.md "One priority setting").
	// Scheduling never changes unit composition, only dispatch timing, so
	// fp32 results are bit-identical across settings. Both algorithms take
	// every setting: under Hierarchical a unit yields at the segment
	// boundaries of both tiers. Priority-ordered packing applies either way.
	PriorityDepth int
	// Algorithm selects ring or hierarchical all-reduce.
	Algorithm Algorithm
	// GPUsPerNode configures the hierarchical algorithm's node grouping.
	GPUsPerNode int
	// Coordinator selects the readiness agreement protocol.
	Coordinator CoordinatorKind
}

// Validate checks the policy; every error wraps ErrBadConfig. These are all
// the rules that do not depend on the hardware: NewEngine adds the world
// size and the transport's streams, cluster.Simulate the engine kind and the
// topology.
func (p Policy) Validate() error {
	switch {
	case p.Streams <= 0:
		return fmt.Errorf("%w: streams %d", ErrBadConfig, p.Streams)
	case p.GranularityBytes < 4:
		return fmt.Errorf("%w: granularity %d bytes", ErrBadConfig, p.GranularityBytes)
	case p.Algorithm != Ring && p.Algorithm != Hierarchical:
		return fmt.Errorf("%w: algorithm %d", ErrBadConfig, int(p.Algorithm))
	case p.Algorithm == Hierarchical && p.GPUsPerNode <= 0:
		return fmt.Errorf("%w: gpusPerNode %d", ErrBadConfig, p.GPUsPerNode)
	case p.Coordinator != Decentralized && p.Coordinator != Master:
		return fmt.Errorf("%w: coordinator %d", ErrBadConfig, int(p.Coordinator))
	case p.MinSyncBytes < 0:
		return fmt.Errorf("%w: minSyncBytes %d", ErrBadConfig, p.MinSyncBytes)
	case p.SegmentBytes < 0:
		return fmt.Errorf("%w: segmentBytes %d", ErrBadConfig, p.SegmentBytes)
	case p.PriorityDepth < 0 || p.PriorityDepth > 2:
		return fmt.Errorf("%w: priorityDepth %d (0 and 1: one class; 2: one class per priority)",
			ErrBadConfig, p.PriorityDepth)
	}
	return nil
}

// SyncBytes returns the unsynchronized gradient bytes that start a readiness
// round: MinSyncBytes, or GranularityBytes when it is 0.
func (p Policy) SyncBytes() int64 {
	if p.MinSyncBytes == 0 {
		return p.GranularityBytes
	}
	return p.MinSyncBytes
}
