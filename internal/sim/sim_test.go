package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"aiacc/netmodel"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestTiesRunInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []time.Duration
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v", fired)
	}
}

func TestAtRejectsPast(t *testing.T) {
	s := New()
	s.After(time.Second, func() {
		if err := s.At(500*time.Millisecond, func() {}); !errors.Is(err, ErrPastEvent) {
			t.Errorf("past event error = %v", err)
		}
	})
	s.Run()
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	ran := false
	s.After(-5*time.Second, func() { ran = true })
	s.Run()
	if !ran || s.Now() != 0 {
		t.Error("negative delay must execute at current time")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	n := s.RunUntil(3 * time.Second)
	if n != 3 || count != 3 {
		t.Errorf("RunUntil executed %d events, want 3", n)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if count != 5 {
		t.Errorf("total = %d, want 5", count)
	}
}

// Scheduling and draining events must not allocate once the queue's backing
// slice has reached its high-water mark: the generic heap stores events
// inline instead of boxing them through interface{} as container/heap did.
func TestSchedulingDoesNotAllocate(t *testing.T) {
	s := New()
	fn := func() {}
	const batch = 64
	// Warm the queue to its steady-state capacity.
	for i := 0; i < batch; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			s.After(time.Duration(i)*time.Millisecond, fn)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule+run allocated %.1f times per op, want 0", allocs)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(7 * time.Second)
	if s.Now() != 7*time.Second {
		t.Errorf("Now = %v, want 7s", s.Now())
	}
}

// unitLink is a 8 Gbps link with no latency whose single stream drives the
// full line rate — 1 GB/s exactly, making timings easy to verify.
func unitLink() netmodel.Link {
	return netmodel.Link{Kind: netmodel.TCP, CapacityGbps: 8, SingleStreamEff: 1, MaxUtilization: 1}
}

func TestSharedLinkSingleTransfer(t *testing.T) {
	s := New()
	l := NewSharedLink(s, unitLink())
	var doneAt time.Duration
	l.Start(1e9, func() { doneAt = s.Now() }) // 1 GB at 1 GB/s
	s.Run()
	if math.Abs(doneAt.Seconds()-1) > 1e-6 {
		t.Errorf("1GB at 1GB/s finished at %v, want 1s", doneAt)
	}
	st := l.Stats()
	if math.Abs(st.BytesMoved-1e9) > 1 {
		t.Errorf("BytesMoved = %v", st.BytesMoved)
	}
	if math.Abs(st.MeanUtilization-1) > 1e-9 {
		t.Errorf("MeanUtilization = %v, want 1", st.MeanUtilization)
	}
}

func TestSharedLinkEqualSharing(t *testing.T) {
	// Eight equal transfers on a full-efficiency link share the rate, so all
	// take eight times as long as one alone, and they complete together in
	// the order they started.
	const n = 8
	s := New()
	l := NewSharedLink(s, unitLink())
	var at []time.Duration
	var order []int
	for i := 0; i < n; i++ {
		l.Start(1e9, func() {
			at = append(at, s.Now())
			order = append(order, i)
		})
	}
	s.Run()
	if len(at) != n {
		t.Fatalf("completions = %d", len(at))
	}
	for i, d := range at {
		if math.Abs(d.Seconds()-n) > 1e-6 {
			t.Errorf("completion at %v, want %ds", d, n)
		}
		if order[i] != i {
			t.Errorf("completion order %v, want start order", order)
			break
		}
	}
}

func TestSharedLinkSetScale(t *testing.T) {
	// 1 GB at 1 GB/s, halved for the first second: 0.5 GB moves in that
	// second and the rest at full rate, done at 1.5s.
	s := New()
	l := NewSharedLink(s, unitLink())
	var doneAt time.Duration
	l.SetScale(0.5)
	l.Start(1e9, func() { doneAt = s.Now() })
	s.After(time.Second, func() { l.SetScale(1) })
	s.Run()
	if math.Abs(doneAt.Seconds()-1.5) > 1e-6 {
		t.Errorf("done at %v, want 1.5s", doneAt)
	}
}

// MeanUtilization is U(n), the fraction of the rate available at each
// instant: SetScale lowers that rate, not the share of it the transfers
// reach, so a run at scale 0.6 reads the same utilization, only longer.
func TestSharedLinkUtilizationExcludesScale(t *testing.T) {
	tcp := netmodel.TCP30Gbps()
	run := func(scale float64) LinkStats {
		s := New()
		l := NewSharedLink(s, tcp)
		l.SetScale(scale)
		for range 3 {
			l.Start(100<<20, func() {})
		}
		s.Run()
		return l.Stats()
	}
	full, scaled := run(1), run(0.6)
	if want := tcp.Utilization(3); math.Abs(full.MeanUtilization-want) > 1e-9 {
		t.Errorf("MeanUtilization = %v, want U(3) = %v", full.MeanUtilization, want)
	}
	if math.Abs(scaled.MeanUtilization-full.MeanUtilization) > 1e-9 {
		t.Errorf("MeanUtilization at scale 0.6 = %v, at 1 = %v", scaled.MeanUtilization, full.MeanUtilization)
	}
	if scaled.BusyTime <= full.BusyTime {
		t.Errorf("busy %v at scale 0.6, %v at 1", scaled.BusyTime, full.BusyTime)
	}
}

func TestSharedLinkLateArrivalSlowsFirst(t *testing.T) {
	// Transfer A (2 GB) runs alone for 1s (1 GB done), then B (500 MB)
	// arrives. Shared rate 0.5 GB/s each: B finishes at t=2s, then A's last
	// 0.5 GB at full rate finishes at 2.5s.
	s := New()
	l := NewSharedLink(s, unitLink())
	var aDone, bDone time.Duration
	l.Start(2e9, func() { aDone = s.Now() })
	s.After(time.Second, func() {
		l.Start(5e8, func() { bDone = s.Now() })
	})
	s.Run()
	if math.Abs(bDone.Seconds()-2) > 1e-6 {
		t.Errorf("B done at %v, want 2s", bDone)
	}
	if math.Abs(aDone.Seconds()-2.5) > 1e-6 {
		t.Errorf("A done at %v, want 2.5s", aDone)
	}
}

// The paper's behaviour: on a TCP link with 30% single-stream efficiency,
// multiple concurrent streams move the same total volume far faster than one
// stream moves it serially.
func TestSharedLinkMultiStreamBeatsSerial(t *testing.T) {
	tcp := netmodel.TCP30Gbps()
	tcp.BaseLatency = 0

	serial := New()
	ls := NewSharedLink(serial, tcp)
	const chunk = int64(100 << 20)
	var serialDone time.Duration
	var next func(k int)
	next = func(k int) {
		if k == 8 {
			serialDone = serial.Now()
			return
		}
		ls.Start(chunk, func() { next(k + 1) })
	}
	next(0)
	serial.Run()

	conc := New()
	lc := NewSharedLink(conc, tcp)
	remaining := 8
	var concDone time.Duration
	for i := 0; i < 8; i++ {
		lc.Start(chunk, func() {
			remaining--
			if remaining == 0 {
				concDone = conc.Now()
			}
		})
	}
	conc.Run()

	speedup := serialDone.Seconds() / concDone.Seconds()
	// U(8)/U(1) = 0.94/0.30 ≈ 3.1x.
	if speedup < 2.5 || speedup > 3.5 {
		t.Errorf("8-stream speedup = %.2fx, want ~3.1x", speedup)
	}
	if util := lc.Stats().MeanUtilization; util < 0.90 {
		t.Errorf("concurrent utilization = %.2f, want >0.90", util)
	}
	if util := ls.Stats().MeanUtilization; util > 0.31 {
		t.Errorf("serial utilization = %.2f, want <=0.30", util)
	}
}

func TestSharedLinkZeroBytes(t *testing.T) {
	link := unitLink()
	link.BaseLatency = 3 * time.Millisecond
	s := New()
	l := NewSharedLink(s, link)
	var doneAt time.Duration
	l.Start(0, func() { doneAt = s.Now() })
	s.Run()
	if doneAt != 3*time.Millisecond {
		t.Errorf("zero-byte transfer done at %v, want base latency", doneAt)
	}
}

func TestSharedLinkManySmallTransfers(t *testing.T) {
	s := New()
	l := NewSharedLink(s, unitLink())
	const n = 100
	done := 0
	for i := 0; i < n; i++ {
		l.Start(1e6, func() { done++ })
	}
	s.Run()
	if done != n {
		t.Errorf("completed %d of %d transfers", done, n)
	}
	if l.Active() != 0 {
		t.Errorf("%d transfers still active", l.Active())
	}
	// Total time = n MB at 1 GB/s = 0.1s regardless of interleaving.
	if math.Abs(s.Now().Seconds()-0.1) > 1e-3 {
		t.Errorf("final time = %v, want 0.1s", s.Now())
	}
}
