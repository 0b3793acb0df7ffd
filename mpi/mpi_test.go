package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aiacc/internal/leakcheck"
	"aiacc/transport"
	"aiacc/transport/chaos"
	"aiacc/transport/shmnet"
)

// worldComms builds a mem network of the given size and returns the world
// communicator for every rank.
func worldComms(t *testing.T, size, streams int) []*Comm {
	t.Helper()
	net, err := transport.NewMem(size, streams)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	t.Cleanup(func() { _ = net.Close() })
	comms := make([]*Comm, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("Endpoint(%d): %v", r, err)
		}
		comms[r] = NewWorld(ep)
	}
	return comms
}

func TestWorldBasics(t *testing.T) {
	comms := worldComms(t, 4, 2)
	for r, c := range comms {
		if c.Rank() != r {
			t.Errorf("rank %d: Rank() = %d", r, c.Rank())
		}
		if c.Size() != 4 {
			t.Errorf("Size() = %d, want 4", c.Size())
		}
		if c.Streams() != 2 {
			t.Errorf("Streams() = %d, want 2", c.Streams())
		}
	}
}

func TestSendRecvCommRelative(t *testing.T) {
	comms := worldComms(t, 3, 1)
	go func() { _ = comms[2].Send(0, 0, []byte("from 2")) }()
	got, err := comms[0].Recv(2, 0)
	if err != nil || string(got) != "from 2" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestGlobalRankBounds(t *testing.T) {
	comms := worldComms(t, 2, 1)
	if _, err := comms[0].GlobalRank(5); !errors.Is(err, ErrBadGroup) {
		t.Errorf("GlobalRank(5) error = %v", err)
	}
	if err := comms[0].Send(9, 0, nil); !errors.Is(err, ErrBadGroup) {
		t.Errorf("Send bad rank error = %v", err)
	}
	if _, err := comms[0].Recv(-1, 0); !errors.Is(err, ErrBadGroup) {
		t.Errorf("Recv bad rank error = %v", err)
	}
}

func TestSubgroup(t *testing.T) {
	comms := worldComms(t, 6, 1)
	// Ranks 1, 3, 5 form a subgroup. Relative ranks must be 0, 1, 2.
	group := []int{5, 1, 3} // unsorted on purpose
	subs := make([]*Comm, 0, 3)
	for _, g := range []int{1, 3, 5} {
		sub, err := comms[g].Subgroup(group)
		if err != nil {
			t.Fatalf("Subgroup on %d: %v", g, err)
		}
		subs = append(subs, sub)
	}
	if subs[0].Rank() != 0 || subs[1].Rank() != 1 || subs[2].Rank() != 2 {
		t.Errorf("relative ranks = %d,%d,%d", subs[0].Rank(), subs[1].Rank(), subs[2].Rank())
	}
	if subs[0].Size() != 3 {
		t.Errorf("Size = %d, want 3", subs[0].Size())
	}
	// Relative Send/Recv translates to global ranks: sub-rank 0 (global 1)
	// sends to sub-rank 2 (global 5).
	go func() { _ = subs[0].Send(2, 0, []byte("hi")) }()
	got, err := subs[2].Recv(0, 0)
	if err != nil || string(got) != "hi" {
		t.Fatalf("subgroup message = %q, %v", got, err)
	}
}

// TestLenderTranslatesRanks: a communicator forwards its endpoint's
// transport.Lender with communicator ranks translated to global ones, and
// has none over an endpoint without it.
func TestLenderTranslatesRanks(t *testing.T) {
	if worldComms(t, 2, 1)[0].Lender() != nil {
		t.Fatal("mem communicator reports a Lender")
	}
	net, err := shmnet.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sub := make([]*Comm, 2)
	for i, g := range []int{1, 3} {
		ep, err := net.Endpoint(g)
		if err != nil {
			t.Fatal(err)
		}
		if sub[i], err = NewWorld(ep).Subgroup([]int{1, 3}); err != nil {
			t.Fatal(err)
		}
	}
	from, to := sub[0].Lender(), sub[1].Lender()
	if from == nil || to == nil {
		t.Fatal("shm communicator has no Lender")
	}
	slot, err := from.Reserve(1, 0, 3)
	if err != nil || slot == nil {
		t.Fatalf("reserve: %v", err)
	}
	copy(slot, "abc")
	if err := from.Commit(1, 0, true); err != nil {
		t.Fatal(err)
	}
	got, err := to.Lend(0, 0)
	if err != nil || string(got) != "abc" {
		t.Fatalf("lend from communicator rank 0 (global 1): %q, %v", got, err)
	}
	if err := to.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := to.Lend(2, 0); !errors.Is(err, ErrBadGroup) {
		t.Fatalf("lend from rank 2 of 2: %v, want ErrBadGroup", err)
	}
}

func TestSubgroupErrors(t *testing.T) {
	comms := worldComms(t, 4, 1)
	if _, err := comms[0].Subgroup(nil); !errors.Is(err, ErrBadGroup) {
		t.Errorf("empty group error = %v", err)
	}
	if _, err := comms[0].Subgroup([]int{0, 0, 1}); !errors.Is(err, ErrBadGroup) {
		t.Errorf("duplicate group error = %v", err)
	}
	if _, err := comms[0].Subgroup([]int{0, 99}); !errors.Is(err, ErrBadGroup) {
		t.Errorf("out-of-range group error = %v", err)
	}
	if _, err := comms[0].Subgroup([]int{1, 2}); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member error = %v", err)
	}
}

func TestNodeGroup(t *testing.T) {
	comms := worldComms(t, 8, 1) // two "nodes" of 4
	for r, c := range comms {
		sub, err := c.NodeGroup(4)
		if err != nil {
			t.Fatalf("NodeGroup on %d: %v", r, err)
		}
		if sub.Size() != 4 {
			t.Errorf("rank %d node group size = %d", r, sub.Size())
		}
		if sub.Rank() != r%4 {
			t.Errorf("rank %d node-relative rank = %d, want %d", r, sub.Rank(), r%4)
		}
	}
	if _, err := comms[0].NodeGroup(0); !errors.Is(err, ErrBadGroup) {
		t.Errorf("NodeGroup(0) error = %v", err)
	}
}

func TestNodeGroupRagged(t *testing.T) {
	comms := worldComms(t, 6, 1) // nodes of 4: {0..3}, {4,5}
	sub, err := comms[5].NodeGroup(4)
	if err != nil {
		t.Fatalf("NodeGroup: %v", err)
	}
	if sub.Size() != 2 || sub.Rank() != 1 {
		t.Errorf("ragged node group = size %d rank %d, want 2/1", sub.Size(), sub.Rank())
	}
}

func TestCrossNodeGroup(t *testing.T) {
	comms := worldComms(t, 8, 1) // two "nodes" of 4
	for r, c := range comms {
		sub, err := c.CrossNodeGroup(4)
		if err != nil {
			t.Fatalf("CrossNodeGroup on %d: %v", r, err)
		}
		if sub.Size() != 2 {
			t.Errorf("rank %d cross group size = %d, want 2", r, sub.Size())
		}
		if sub.Rank() != r/4 {
			t.Errorf("rank %d cross-relative rank = %d, want %d", r, sub.Rank(), r/4)
		}
		// Members must share this rank's node-local index.
		for i := 0; i < sub.Size(); i++ {
			g, err := sub.GlobalRank(i)
			if err != nil {
				t.Fatalf("GlobalRank: %v", err)
			}
			if g%4 != r%4 {
				t.Errorf("rank %d cross member %d has local index %d, want %d", r, g, g%4, r%4)
			}
		}
	}
	if _, err := comms[0].CrossNodeGroup(0); !errors.Is(err, ErrBadGroup) {
		t.Errorf("CrossNodeGroup(0) error = %v", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8} {
		comms := worldComms(t, size, 1)
		var wg sync.WaitGroup
		errc := make(chan error, size)
		for _, c := range comms {
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				for iter := 0; iter < 3; iter++ {
					if err := c.Barrier(0); err != nil {
						errc <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

// Barrier must actually synchronize: no rank may exit the barrier before
// every rank has entered it.
func TestBarrierSynchronizes(t *testing.T) {
	const size = 5
	comms := worldComms(t, size, 1)
	var mu sync.Mutex
	entered := 0
	violation := false

	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			mu.Lock()
			entered++
			mu.Unlock()
			if err := c.Barrier(0); err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			mu.Lock()
			if entered != size {
				violation = true
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if violation {
		t.Error("a rank left the barrier before all ranks entered")
	}
}

// TestBarrierUnwindsOnCrash crashes a rank as it enters its second barrier,
// so it never signals the survivors, who are then mid-barrier. A barrier
// cannot complete without every member, so each survivor must fail with a
// classified communication failure — not hang — and the abandoned senders
// and every pooled buffer must come back. Run under -race in make ci.
func TestBarrierUnwindsOnCrash(t *testing.T) {
	const size, victim = 4, 1
	base := leakcheck.Take()
	inner, err := transport.NewMem(size, 1, transport.WithMemOpTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// A 4-rank barrier is two rounds, one send each: the third send is the
	// victim's entry into the second barrier.
	net := chaos.Wrap(inner, chaos.NewPlan(1).CrashRank(victim, 2))
	results := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			defer c.Close()
			if err := c.Barrier(0); err != nil {
				results[r] = fmt.Errorf("first barrier: %w", err)
				return
			}
			results[r] = c.Barrier(0)
		}(r, NewWorld(ep))
	}
	wg.Wait()
	_ = net.Close()
	for r, err := range results {
		switch {
		case r == victim:
			if !errors.Is(err, chaos.ErrKilled) {
				t.Errorf("victim: %v, want chaos.ErrKilled", err)
			}
		case !transport.IsCommFailure(err):
			t.Errorf("rank %d: %v, want a communication failure", r, err)
		}
	}
	if err := base.Goroutines(10 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Buffers(10 * time.Second); err != nil {
		t.Error(err)
	}
}
