package netmodel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPresetsValid(t *testing.T) {
	for _, l := range []Link{TCP30Gbps(), RDMA100Gbps(), NVLinkV100(), PCIeGen3()} {
		if err := l.Validate(); err != nil {
			t.Errorf("%v: %v", l.Kind, err)
		}
	}
}

func TestValidateRejectsBadLinks(t *testing.T) {
	tests := []struct {
		name string
		link Link
	}{
		{name: "zero kind", link: Link{CapacityGbps: 1, SingleStreamEff: 0.5, MaxUtilization: 0.9}},
		{name: "zero capacity", link: Link{Kind: TCP, SingleStreamEff: 0.5, MaxUtilization: 0.9}},
		{name: "eff zero", link: Link{Kind: TCP, CapacityGbps: 1, MaxUtilization: 0.9}},
		{name: "eff above one", link: Link{Kind: TCP, CapacityGbps: 1, SingleStreamEff: 1.5, MaxUtilization: 1}},
		{name: "max below eff", link: Link{Kind: TCP, CapacityGbps: 1, SingleStreamEff: 0.5, MaxUtilization: 0.3}},
		{name: "negative latency", link: Link{Kind: TCP, CapacityGbps: 1, SingleStreamEff: 0.5, MaxUtilization: 0.9, BaseLatency: -time.Second}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.link.Validate(); !errors.Is(err, ErrBadLink) {
				t.Errorf("Validate() = %v, want ErrBadLink", err)
			}
		})
	}
}

// The paper's headline measurement: one stream on the 30 Gbps VPC drives at
// most 30% of the link (~9-10 Gbps, the "NCCL only utilizes up to 10Gbps"
// observation), and RDMA single-stream efficiency is 5-10%.
func TestPaperCalibration(t *testing.T) {
	tcp := TCP30Gbps()
	if got := tcp.Utilization(1); got > 0.30+1e-9 {
		t.Errorf("TCP single-stream utilization = %.3f, paper says <= 0.30", got)
	}
	if got := tcp.EffectiveGbps(1); got < 8 || got > 10.5 {
		t.Errorf("TCP single-stream bandwidth = %.2f Gbps, want ~9-10", got)
	}
	rdma := RDMA100Gbps()
	if u := rdma.Utilization(1); u < 0.05 || u > 0.10 {
		t.Errorf("RDMA single-stream utilization = %.3f, paper says 5-10%%", u)
	}
	// Many streams approach (but never exceed) the ceiling.
	if u := tcp.Utilization(24); u < 0.95 || u > tcp.MaxUtilization {
		t.Errorf("TCP 24-stream utilization = %.3f, want near %.2f", u, tcp.MaxUtilization)
	}
}

func TestUtilizationMonotone(t *testing.T) {
	l := TCP30Gbps()
	prev := 0.0
	for n := 0; n <= 32; n++ {
		u := l.Utilization(n)
		if u < prev-1e-12 {
			t.Fatalf("utilization decreased at n=%d: %.4f < %.4f", n, u, prev)
		}
		if u > l.MaxUtilization+1e-12 {
			t.Fatalf("utilization exceeds ceiling at n=%d: %.4f", n, u)
		}
		prev = u
	}
	if l.Utilization(0) != 0 || l.Utilization(-3) != 0 {
		t.Error("non-positive stream count must give zero utilization")
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{Kind: TCP, CapacityGbps: 8, SingleStreamEff: 1, MaxUtilization: 1} // 1 GB/s exactly
	got := l.TransferTime(1e9, 1)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("1GB over 1GB/s = %v, want 1s", got)
	}
	l.BaseLatency = time.Millisecond
	if got := l.TransferTime(0, 4); got != time.Millisecond {
		t.Errorf("zero-byte transfer = %v, want base latency", got)
	}
	// More streams on a sub-saturated link are strictly faster.
	tcp := TCP30Gbps()
	if tcp.TransferTime(1<<30, 8) >= tcp.TransferTime(1<<30, 1) {
		t.Error("8 streams should beat 1 stream on TCP")
	}
}

func TestSegments(t *testing.T) {
	cases := []struct {
		bytes, seg int64
		want       int
	}{
		{1 << 20, 0, 1},   // disabled
		{1 << 20, -1, 1},  // disabled
		{0, 128 << 10, 1}, // empty payload still one segment
		{64 << 10, 128 << 10, 1},
		{128 << 10, 128 << 10, 1},
		{128<<10 + 1, 128 << 10, 2},
		{1 << 20, 128 << 10, 8},
		{1<<20 + 1, 128 << 10, 9},
	}
	for _, c := range cases {
		if got := Segments(c.bytes, c.seg); got != c.want {
			t.Errorf("Segments(%d, %d) = %d, want %d", c.bytes, c.seg, got, c.want)
		}
	}
}

func TestExposedCompute(t *testing.T) {
	total := 8 * time.Millisecond
	if got := ExposedCompute(total, 1); got != total {
		t.Errorf("one segment exposes everything: %v", got)
	}
	if got := ExposedCompute(total, 0); got != total {
		t.Errorf("degenerate segment count exposes everything: %v", got)
	}
	if got := ExposedCompute(total, 8); got != time.Millisecond {
		t.Errorf("8 segments expose 1/8: %v", got)
	}
	// More segments never expose more.
	prev := ExposedCompute(total, 1)
	for s := 2; s <= 64; s *= 2 {
		cur := ExposedCompute(total, s)
		if cur > prev {
			t.Fatalf("ExposedCompute not monotone at %d segments: %v > %v", s, cur, prev)
		}
		prev = cur
	}
}

func TestTopology(t *testing.T) {
	top := V100Cluster(32)
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if top.Nodes != 4 || top.GPUsPerNode != 8 || top.TotalGPUs() != 32 {
		t.Fatalf("V100Cluster(32) = %d nodes x %d gpus", top.Nodes, top.GPUsPerNode)
	}
	if top.NodeOf(0) != 0 || top.NodeOf(7) != 0 || top.NodeOf(8) != 1 || top.NodeOf(31) != 3 {
		t.Error("NodeOf mapping wrong")
	}
	if !top.SameNode(0, 7) || top.SameNode(7, 8) {
		t.Error("SameNode wrong")
	}
	if top.LinkBetween(0, 1).Kind != NVLink {
		t.Error("intra-node link must be NVLink")
	}
	if top.LinkBetween(0, 8).Kind != TCP {
		t.Error("inter-node link must be TCP")
	}
}

func TestTopologySmall(t *testing.T) {
	top := V100Cluster(4)
	if top.Nodes != 1 || top.GPUsPerNode != 4 {
		t.Errorf("V100Cluster(4) = %d nodes x %d gpus, want 1x4", top.Nodes, top.GPUsPerNode)
	}
	if err := top.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTopologyRDMA(t *testing.T) {
	top := V100RDMACluster(64)
	if top.Inter.Kind != RDMA {
		t.Error("V100RDMACluster inter-node link must be RDMA")
	}
	if top.TotalGPUs() != 64 {
		t.Errorf("TotalGPUs = %d, want 64", top.TotalGPUs())
	}
}

func TestTopologyValidateErrors(t *testing.T) {
	bad := Topology{Nodes: 0, GPUsPerNode: 8}
	if err := bad.Validate(); !errors.Is(err, ErrBadLink) {
		t.Errorf("zero nodes error = %v", err)
	}
	bad = Topology{Nodes: 2, GPUsPerNode: 8, Intra: NVLinkV100()} // missing inter
	if err := bad.Validate(); !errors.Is(err, ErrBadLink) {
		t.Errorf("missing inter link error = %v", err)
	}
	// Single node never uses the inter link, so it may be zero.
	ok := Topology{Nodes: 1, GPUsPerNode: 8, Intra: NVLinkV100()}
	if err := ok.Validate(); err != nil {
		t.Errorf("single-node topology should validate, got %v", err)
	}
}

// Property: utilization is monotonically non-decreasing in stream count for
// any valid link.
func TestQuickUtilizationMonotone(t *testing.T) {
	f := func(eff, headroom float64, a, b uint8) bool {
		eff = 0.01 + math.Mod(math.Abs(eff), 0.98)
		maxU := eff + math.Mod(math.Abs(headroom), 1-eff)
		l := Link{Kind: TCP, CapacityGbps: 10, SingleStreamEff: eff, MaxUtilization: maxU}
		x, y := int(a%64), int(b%64)
		if x > y {
			x, y = y, x
		}
		return l.Utilization(x) <= l.Utilization(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transfer time is non-increasing in stream count.
func TestQuickTransferTimeMonotone(t *testing.T) {
	f := func(size uint32, a, b uint8) bool {
		l := TCP30Gbps()
		x, y := int(a%32)+1, int(b%32)+1
		if x > y {
			x, y = y, x
		}
		return l.TransferTime(int64(size), y) <= l.TransferTime(int64(size), x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkKindString(t *testing.T) {
	tests := []struct {
		kind LinkKind
		want string
	}{
		{kind: TCP, want: "tcp"},
		{kind: RDMA, want: "rdma"},
		{kind: NVLink, want: "nvlink"},
		{kind: PCIe, want: "pcie"},
		{kind: LinkKind(9), want: "LinkKind(9)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
