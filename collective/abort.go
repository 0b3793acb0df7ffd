// Collective abort and unwind (DESIGN.md §8).
//
// When a rank's step of a collective fails — a peer died, an op deadline
// fired, a payload failed to decode — every other rank is potentially blocked
// on a Recv that will never be satisfied. The failing rank therefore poisons
// *all* of its outgoing lanes on the operation's stream before returning.
// Each poisoned peer wakes with a *transport.PeerFailedError naming the
// origin, fails its own step, and floods its own outgoing lanes in turn, so
// the failure propagates transitively through whatever communication topology
// the collective was using (ring, binomial tree, hierarchical phases) and
// every surviving rank returns a wrapped error instead of hanging.
//
// The flood is deliberately not a minimal downstream set: an abort condemns
// the stream's lanes anyway (recovery is checkpoint restart over a fresh
// mesh, matching the paper's §IV elastic deployment), and poisoning
// everything is what makes the propagation graph connected across phase
// boundaries — e.g. a leader-ring failure reaching node members already
// parked in the next phase's intra-node broadcast.
package collective

import (
	"errors"

	"aiacc/metrics"
	"aiacc/mpi"
	"aiacc/transport"
)

var mAborts = metrics.NewCounter("aiacc_collective_aborts_total",
	"Collective operations that unwound with an abort fan-out.")

// abortWorthy reports whether a failed collective should poison its peers.
// Local teardown means the peers are shutting down through their own Close;
// argument-validation errors are deterministic on every rank (same arguments
// everywhere), so no rank is left blocked — poisoning a healthy mesh for them
// would be the only way to *create* a failure.
func abortWorthy(err error) bool {
	if errors.Is(err, transport.ErrPeerFailed) {
		return true
	}
	switch {
	case errors.Is(err, transport.ErrClosed),
		errors.Is(err, transport.ErrBadRank),
		errors.Is(err, transport.ErrBadStream),
		errors.Is(err, mpi.ErrBadGroup),
		errors.Is(err, mpi.ErrNotMember):
		return false
	}
	return true
}

// Unwind is the error exit of every exported collective (exported so other
// collective-shaped protocols — gradsync's master gather, engine-level sync —
// can share the policy): on an abort-worthy failure it poisons the stream's
// lane to every other member of c, attributing the failure to the rank
// extracted from err (or this rank, for local failures such as a decode
// error), then returns err unchanged.
func Unwind(c *mpi.Comm, stream int, err error) error {
	if err == nil || !abortWorthy(err) {
		return err
	}
	mAborts.Inc()
	origin, ok := transport.FailedRank(err)
	if !ok {
		if g, gerr := c.GlobalRank(c.Rank()); gerr == nil {
			origin = g
		}
	}
	for to := 0; to < c.Size(); to++ {
		if to == c.Rank() {
			continue
		}
		_ = c.Abort(to, stream, origin)
	}
	return err
}
