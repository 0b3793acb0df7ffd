package transport

import (
	"errors"
	"fmt"
)

// TwoTier composes a topology-aware Network out of per-host intra networks
// and one global inter network: ranks are laid out host-major (host =
// rank/ranksPerHost, like mpi.Comm's NodeGroup), traffic between co-located
// ranks routes through that host's intra network (shared memory in the
// intended deployment), and everything else routes through the inter network
// (the multi-stream TCP mesh). This is the live-mode substrate of the
// two-level hierarchical all-reduce: the intra and inter tiers are physically
// independent, so the overlapped schedule's concurrent phases never contend
// for one transport.
//
// Both tiers must expose the same stream count; the inter network spans all
// ranks (its intra-host lanes simply go unused), so any Network — mem, TCP,
// chaos-wrapped — slots into either role.
type twoTier struct {
	perHost int
	intra   []Network
	inter   Network
	size    int
	streams int
}

var _ Network = (*twoTier)(nil)

// NewTwoTier builds a two-tier network from len(intra) host-local networks
// of ranksPerHost ranks each and one inter network spanning all
// len(intra)×ranksPerHost ranks.
func NewTwoTier(ranksPerHost int, intra []Network, inter Network) (Network, error) {
	if ranksPerHost <= 0 || len(intra) == 0 {
		return nil, fmt.Errorf("%w: %d hosts of %d ranks", ErrBadRank, len(intra), ranksPerHost)
	}
	size := ranksPerHost * len(intra)
	if inter.Size() != size {
		return nil, fmt.Errorf("%w: inter network spans %d ranks, topology has %d", ErrBadRank, inter.Size(), size)
	}
	streams := inter.Streams()
	for h, n := range intra {
		if n.Size() != ranksPerHost {
			return nil, fmt.Errorf("%w: intra network %d spans %d ranks, want %d", ErrBadRank, h, n.Size(), ranksPerHost)
		}
		if n.Streams() != streams {
			return nil, fmt.Errorf("%w: intra network %d has %d streams, inter has %d", ErrBadStream, h, n.Streams(), streams)
		}
	}
	return &twoTier{perHost: ranksPerHost, intra: intra, inter: inter, size: size, streams: streams}, nil
}

func (n *twoTier) Size() int    { return n.size }
func (n *twoTier) Streams() int { return n.streams }

func (n *twoTier) Endpoint(r int) (Endpoint, error) {
	if err := checkRank(r, n.size); err != nil {
		return nil, err
	}
	host := r / n.perHost
	local, err := n.intra[host].Endpoint(r % n.perHost)
	if err != nil {
		return nil, fmt.Errorf("two-tier intra endpoint %d: %w", r, err)
	}
	global, err := n.inter.Endpoint(r)
	if err != nil {
		return nil, fmt.Errorf("two-tier inter endpoint %d: %w", r, err)
	}
	return &twoTierEndpoint{net: n, rank: r, host: host, local: local, global: global}, nil
}

func (n *twoTier) Close() error {
	var first error
	for _, in := range n.intra {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := n.inter.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// twoTierEndpoint routes each operation to the tier that owns the peer.
type twoTierEndpoint struct {
	net    *twoTier
	rank   int
	host   int
	local  Endpoint // this host's intra network, local ranks
	global Endpoint // the inter network, global ranks
}

var _ Endpoint = (*twoTierEndpoint)(nil)
var _ Aborter = (*twoTierEndpoint)(nil)

func (e *twoTierEndpoint) Rank() int    { return e.rank }
func (e *twoTierEndpoint) Size() int    { return e.net.size }
func (e *twoTierEndpoint) Streams() int { return e.net.streams }

// route picks the tier endpoint and the peer's rank within it.
func (e *twoTierEndpoint) route(peer int) (Endpoint, int) {
	if peer/e.net.perHost == e.host {
		return e.local, peer % e.net.perHost
	}
	return e.global, peer
}

func (e *twoTierEndpoint) Send(to, stream int, data []byte) error {
	if err := checkRank(to, e.net.size); err != nil {
		return err
	}
	ep, peer := e.route(to)
	err := ep.Send(peer, stream, data)
	if ep == e.local {
		err = e.mapIntraErr(err)
	}
	return err
}

func (e *twoTierEndpoint) Recv(from, stream int) ([]byte, error) {
	if err := checkRank(from, e.net.size); err != nil {
		return nil, err
	}
	ep, peer := e.route(from)
	data, err := ep.Recv(peer, stream)
	if ep == e.local {
		err = e.mapIntraErr(err)
	}
	return data, err
}

// mapIntraErr lifts a host-local failure into global rank space: the intra
// network names peers by its own ranks, but callers (mpi, the collectives)
// attribute failures globally. Abort origins are exempt — they are already
// global by the Aborter contract and pass through verbatim.
func (e *twoTierEndpoint) mapIntraErr(err error) error {
	if err == nil {
		// Before pf is declared: errors.As makes it escape, and a heap
		// allocation per successful Send/Recv is garbage on the hot path.
		return nil
	}
	var pf *PeerFailedError
	if !errors.As(err, &pf) || errors.Is(pf.Cause, ErrAborted) {
		return err
	}
	global := e.host*e.net.perHost + pf.Rank
	return fmt.Errorf("two-tier intra host %d: %w", e.host,
		&PeerFailedError{Rank: global, Cause: pf.Cause})
}

// Abort delegates to the owning tier. Origin ranks travel verbatim: both
// tiers' PeerFailedError surfaces them unchanged, and the collective layer
// resolves origins against the global communicator, so intra-tier aborts
// must carry global origins too — Abort's origin parameter is already global
// by the mpi.Comm contract.
func (e *twoTierEndpoint) Abort(to, stream, origin int) error {
	if err := checkRank(to, e.net.size); err != nil {
		return err
	}
	ep, peer := e.route(to)
	return Abort(ep, peer, stream, origin)
}

func (e *twoTierEndpoint) Close() error {
	err := e.local.Close()
	if gerr := e.global.Close(); gerr != nil && err == nil {
		err = gerr
	}
	return err
}
