//go:build !race

// The race detector makes sync.Pool drop a share of its Puts, so allocation
// counts mean nothing under -race and this file builds without it.

package transport_test

import (
	"testing"
	"time"

	"aiacc/internal/bufpool"
	"aiacc/netmodel"
	"aiacc/transport"
)

// TestBlockingOpsLeaveNoGarbage: a Recv (and on a modelled link, a Send)
// that blocks under an op timeout arms its lane side's reused timer, so a
// steady-state ping-pong, whose receives block every round, allocates
// nothing on any transport.
func TestBlockingOpsLeaveNoGarbage(t *testing.T) {
	cases := conformanceCases()
	cases = append(cases, transportCase{
		name: "mem modelled link",
		build: func(t *testing.T, size, streams int) transport.Network {
			link := netmodel.Link{Kind: netmodel.TCP, CapacityGbps: 100, SingleStreamEff: 1,
				MaxUtilization: 1, BaseLatency: time.Microsecond}
			n, err := transport.NewMem(size, streams, transport.WithModeledLink(link),
				transport.WithMemOpTimeout(2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build(t, 2, 1)
			defer func() { _ = net.Close() }()
			a, err := net.Endpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := net.Endpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			// Rank 1 echoes every frame back; its Recv blocks between rounds.
			echoDone := make(chan error, 1)
			go func() {
				for {
					p, err := b.Recv(0, 0)
					if err != nil {
						echoDone <- err
						return
					}
					if err := b.Send(0, 0, p); err != nil {
						echoDone <- err
						return
					}
				}
			}()
			round := func() {
				if err := a.Send(1, 0, bufpool.Get(256)); err != nil {
					t.Fatal(err)
				}
				p, err := a.Recv(1, 0) // blocks for the echo
				if err != nil {
					t.Fatal(err)
				}
				bufpool.Put(p)
			}
			for i := 0; i < 100; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg > 0.1 {
				t.Fatalf("steady-state blocking round trip allocates %.2f times, want 0", avg)
			}
			_ = net.Close()
			<-echoDone
		})
	}
}
