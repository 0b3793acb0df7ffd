// Package netmodel models the communication links of a GPU cloud: TCP/IP VPC
// networks, RDMA fabrics, and intra-node NVLink/PCIe. It encodes the paper's
// central measurement (§III): a single communication stream drives at most
// ~30% of a TCP/IP link (and as little as 5-10% of RDMA), while multiple
// concurrent streams can together approach full utilization. Both the live
// in-memory transport (when rate modelling is enabled) and the discrete-event
// cluster simulator charge transfers against these models.
package netmodel

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// LinkKind identifies the physical technology of a link.
type LinkKind int

// Supported link technologies.
const (
	TCP LinkKind = iota + 1
	RDMA
	NVLink
	PCIe
	// SHM is the mmap'd shared-memory transport between co-located
	// processes (transport/shmnet): pure memcpy through lock-free rings, no
	// syscalls on the data path.
	SHM
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case TCP:
		return "tcp"
	case RDMA:
		return "rdma"
	case NVLink:
		return "nvlink"
	case PCIe:
		return "pcie"
	case SHM:
		return "shm"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// ErrBadLink indicates an invalid link configuration.
var ErrBadLink = errors.New("netmodel: invalid link configuration")

// Link describes one communication link and its stream-efficiency behaviour.
//
// The per-stream utilization model is
//
//	util(n) = min(MaxUtilization, 1 - (1-SingleStreamEff)^n)
//
// i.e. each additional concurrent stream claims SingleStreamEff of the
// *remaining* headroom. This matches the qualitative curve reported in the
// paper: one TCP stream ≈ 30% utilization, a handful of streams nearly
// saturate the link, and utilization plateaus just below line rate.
type Link struct {
	// Kind is the link technology.
	Kind LinkKind
	// CapacityGbps is the raw line rate in gigabits per second.
	CapacityGbps float64
	// SingleStreamEff is the fraction of CapacityGbps one stream can drive.
	SingleStreamEff float64
	// MaxUtilization is the ceiling reachable with many streams.
	MaxUtilization float64
	// BaseLatency is the per-message propagation + software latency.
	BaseLatency time.Duration
}

// Validate reports whether the link parameters are physically meaningful.
func (l Link) Validate() error {
	switch {
	case l.Kind == 0:
		return fmt.Errorf("%w: kind unset", ErrBadLink)
	case l.CapacityGbps <= 0:
		return fmt.Errorf("%w: capacity %.3f Gbps", ErrBadLink, l.CapacityGbps)
	case l.SingleStreamEff <= 0 || l.SingleStreamEff > 1:
		return fmt.Errorf("%w: single-stream efficiency %.3f", ErrBadLink, l.SingleStreamEff)
	case l.MaxUtilization < l.SingleStreamEff || l.MaxUtilization > 1:
		return fmt.Errorf("%w: max utilization %.3f", ErrBadLink, l.MaxUtilization)
	case l.BaseLatency < 0:
		return fmt.Errorf("%w: negative latency", ErrBadLink)
	}
	return nil
}

// Utilization returns the fraction of the line rate achievable with n
// concurrent streams. n <= 0 yields 0.
func (l Link) Utilization(n int) float64 {
	if n <= 0 {
		return 0
	}
	u := 1 - math.Pow(1-l.SingleStreamEff, float64(n))
	return math.Min(u, l.MaxUtilization)
}

// EffectiveGbps returns the aggregate bandwidth in Gbps achievable with n
// concurrent streams.
func (l Link) EffectiveGbps(n int) float64 {
	return l.CapacityGbps * l.Utilization(n)
}

// BytesPerSecond returns the aggregate bandwidth with n streams in bytes/s.
func (l Link) BytesPerSecond(n int) float64 {
	return l.EffectiveGbps(n) * 1e9 / 8
}

// TransferTime returns the modelled wall-clock time to move size bytes using
// n concurrent streams, including one base latency.
func (l Link) TransferTime(size int64, n int) time.Duration {
	if size <= 0 {
		return l.BaseLatency
	}
	bps := l.BytesPerSecond(n)
	if bps <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(size) / bps
	return l.BaseLatency + time.Duration(sec*float64(time.Second))
}

// Segments returns the number of wire segments a payload of `bytes` is split
// into under the ring pipelining segment size segBytes (collective package:
// segments double-buffer so codec and reduction overlap the transfer). A
// non-positive segment size, or a payload no larger than one segment, is a
// single segment.
func Segments(bytes, segBytes int64) int {
	if segBytes <= 0 || bytes <= segBytes {
		return 1
	}
	return int((bytes + segBytes - 1) / segBytes)
}

// ExposedCompute returns the serial (non-overlapped) share of a per-chunk
// compute cost — codec or reduction — when the chunk is pipelined as `segs`
// wire segments. With one segment the whole cost is exposed; with more, only
// the pipeline-fill segment's share remains on the critical path while the
// rest overlaps the in-flight transfer.
func ExposedCompute(total time.Duration, segs int) time.Duration {
	if segs <= 1 {
		return total
	}
	return total / time.Duration(segs)
}

// Preset links. The constants are calibrated to the paper's evaluation
// platform (§VII-A): 30 Gbps VPC TCP between nodes, optional RDMA, and
// NVLink-connected V100s within a node.

// TCP30Gbps returns the paper's inter-node VPC link: a single stream drives
// ~30% of the 30 Gbps line rate (≈9 Gbps, matching the "NCCL utilizes up to
// 10Gbps" observation in §V-B).
func TCP30Gbps() Link {
	return Link{
		Kind:            TCP,
		CapacityGbps:    30,
		SingleStreamEff: 0.30,
		MaxUtilization:  0.96,
		BaseLatency:     150 * time.Microsecond,
	}
}

// RDMA100Gbps returns an RDMA fabric link: enormous line rate but a single
// stream drives only ~8% of it (§III reports 5-10%).
func RDMA100Gbps() Link {
	return Link{
		Kind:            RDMA,
		CapacityGbps:    100,
		SingleStreamEff: 0.08,
		MaxUtilization:  0.97,
		BaseLatency:     20 * time.Microsecond,
	}
}

// NVLinkV100 returns the intra-node NVLink mesh bandwidth between V100s.
// NVLink is point-to-point and DMA-driven, so a single stream already runs
// near line rate.
func NVLinkV100() Link {
	return Link{
		Kind:            NVLink,
		CapacityGbps:    300, // ~25 GB/s usable per direction aggregated
		SingleStreamEff: 0.90,
		MaxUtilization:  0.98,
		BaseLatency:     5 * time.Microsecond,
	}
}

// PCIeGen3 returns a PCIe 3.0 x16 host link used for GPU<->CPU staging when
// GPUDirect RDMA is unavailable.
func PCIeGen3() Link {
	return Link{
		Kind:            PCIe,
		CapacityGbps:    100, // ~12.5 GB/s usable
		SingleStreamEff: 0.70,
		MaxUtilization:  0.95,
		BaseLatency:     10 * time.Microsecond,
	}
}

// SHMIntraHost returns the shared-memory intra-host link of transport/shmnet:
// frames move by memcpy through per-(peer, stream) rings, so one stream
// already runs near memory-bandwidth-bound line rate and the hand-off
// latency is a couple of scheduler yields, not a network round trip.
// Calibrated against transport/shmnet's BenchmarkShmSendRecv: ~4-9 GB/s per
// lane on a 1-vCPU 2.1 GHz Xeon, rising with frame size (EXPERIMENTS.md,
// "Earlier live A/Bs").
func SHMIntraHost() Link {
	return Link{
		Kind:            SHM,
		CapacityGbps:    64, // ~8 GB/s memcpy-bound per direction
		SingleStreamEff: 0.85,
		MaxUtilization:  0.97,
		BaseLatency:     2 * time.Microsecond,
	}
}

// LoopbackTCP returns the kernel loopback TCP path between co-located
// processes: the data crosses the socket stack twice (write+read syscalls,
// kernel buffer copies), which caps per-stream throughput far below memcpy
// and adds tens of microseconds of latency — the gap the shm transport
// exists to close.
func LoopbackTCP() Link {
	return Link{
		Kind:            TCP,
		CapacityGbps:    8,
		SingleStreamEff: 0.40,
		MaxUtilization:  0.95,
		BaseLatency:     60 * time.Microsecond,
	}
}

// Topology describes the two-level network of a GPU cloud deployment:
// GPUs within a node communicate over Intra, nodes communicate over Inter.
type Topology struct {
	// Nodes is the number of computing nodes.
	Nodes int
	// GPUsPerNode is the number of GPUs in each node.
	GPUsPerNode int
	// Intra is the intra-node GPU-to-GPU link.
	Intra Link
	// Inter is the inter-node link (one NIC per node).
	Inter Link
}

// Validate checks the topology for consistency.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.GPUsPerNode <= 0 {
		return fmt.Errorf("%w: %d nodes x %d gpus", ErrBadLink, t.Nodes, t.GPUsPerNode)
	}
	if err := t.Intra.Validate(); err != nil {
		return fmt.Errorf("intra: %w", err)
	}
	if t.Nodes > 1 {
		if err := t.Inter.Validate(); err != nil {
			return fmt.Errorf("inter: %w", err)
		}
	}
	return nil
}

// TotalGPUs returns the number of GPUs in the deployment.
func (t Topology) TotalGPUs() int { return t.Nodes * t.GPUsPerNode }

// NodeOf returns the node index hosting global GPU rank r.
func (t Topology) NodeOf(r int) int { return r / t.GPUsPerNode }

// SameNode reports whether two global ranks share a computing node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// LinkBetween returns the link connecting two global ranks: the intra-node
// link if they share a node, the inter-node link otherwise.
func (t Topology) LinkBetween(a, b int) Link {
	if t.SameNode(a, b) {
		return t.Intra
	}
	return t.Inter
}

// V100Cluster returns the paper's evaluation platform scaled to n GPUs:
// 8 NVLink V100s per node, 30 Gbps TCP between nodes. n must be a positive
// multiple of 8 or less than 8 (single partial node).
func V100Cluster(gpus int) Topology {
	perNode := 8
	nodes := (gpus + perNode - 1) / perNode
	if gpus < perNode {
		perNode = gpus
		nodes = 1
	}
	return Topology{
		Nodes:       nodes,
		GPUsPerNode: perNode,
		Intra:       NVLinkV100(),
		Inter:       TCP30Gbps(),
	}
}

// V100RDMACluster is V100Cluster with the inter-node link replaced by RDMA.
func V100RDMACluster(gpus int) Topology {
	top := V100Cluster(gpus)
	top.Inter = RDMA100Gbps()
	return top
}

// TwoTierLoopback returns the same-machine multi-process topology of the
// shm-vs-TCP A/B benchmarks: ranksPerHost processes per simulated host wired
// by shared-memory rings, hosts wired by loopback TCP. It is the two-tier
// link model under which the simulator predicts when the two-level
// hierarchical schedule beats the flat pipelined ring.
func TwoTierLoopback(hosts, ranksPerHost int) Topology {
	return Topology{
		Nodes:       hosts,
		GPUsPerNode: ranksPerHost,
		Intra:       SHMIntraHost(),
		Inter:       LoopbackTCP(),
	}
}
