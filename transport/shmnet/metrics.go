package shmnet

import (
	"strconv"

	"aiacc/metrics"
)

// Shared-memory transport instruments (DESIGN.md §7, §9). Per-(peer, stream)
// traffic counters mirror the TCP mesh's, so dashboards see both tiers of a
// two-level all-reduce side by side; the occupancy histogram shows how hard
// the rings are backpressuring, and the spin-vs-park counters show whether
// waiters are resolving in the cheap Gosched phase or escalating to a block
// (on a loaded host, a park-heavy profile means the ring is undersized or
// the consumer is starved). The backstop counters are the lost-wake-up
// canary: a park the timer ended although the peer had already moved. The
// lend counters show how much traffic skips the transport's copies: frames
// lent in place, frames committed from a reservation, and reservations that
// got no slot and fell back to a copying Send. Lent and reserved frames
// count in the traffic counters like any other.
//
// All instruments are resolved once at endpoint construction and kept in
// index-addressed slices — the data plane increments atomics directly.

// waitCounters classifies resolved blocking episodes.
type waitCounters struct {
	spins     *metrics.Counter // episodes resolved within the Gosched phase
	parks     *metrics.Counter // episodes that blocked
	backstops *metrics.Counter // parks the timer ended rather than a signal
}

type shmMetrics struct {
	// Indexed peer*streams+stream.
	txBytes, txFrames []*metrics.Counter
	rxBytes, rxFrames []*metrics.Counter

	ringOcc *metrics.Histogram // ring occupancy in bytes, observed at Send and Reserve
	send    waitCounters
	recv    waitCounters

	lent, reserved, fallbacks *metrics.Counter // transport.Lender traffic
}

func newShmMetrics(rank, size, streams int) *shmMetrics {
	m := &shmMetrics{
		txBytes:  make([]*metrics.Counter, size*streams),
		txFrames: make([]*metrics.Counter, size*streams),
		rxBytes:  make([]*metrics.Counter, size*streams),
		rxFrames: make([]*metrics.Counter, size*streams),
	}
	rankL := metrics.L("rank", strconv.Itoa(rank))
	for peer := 0; peer < size; peer++ {
		peerL := metrics.L("peer", strconv.Itoa(peer))
		for s := 0; s < streams; s++ {
			idx := peer*streams + s
			streamL := metrics.L("stream", strconv.Itoa(s))
			m.txBytes[idx] = metrics.NewCounter("aiacc_shm_tx_bytes_total",
				"Payload bytes sent over shared memory, by destination peer and stream.", rankL, peerL, streamL)
			m.txFrames[idx] = metrics.NewCounter("aiacc_shm_tx_frames_total",
				"Frames sent over shared memory, by destination peer and stream.", rankL, peerL, streamL)
			m.rxBytes[idx] = metrics.NewCounter("aiacc_shm_rx_bytes_total",
				"Payload bytes received over shared memory, by source peer and stream.", rankL, peerL, streamL)
			m.rxFrames[idx] = metrics.NewCounter("aiacc_shm_rx_frames_total",
				"Frames received over shared memory, by source peer and stream.", rankL, peerL, streamL)
		}
	}
	m.ringOcc = metrics.NewHistogram("aiacc_shm_ring_occupancy_bytes",
		"Ring occupancy observed at Send and Reserve (bytes queued ahead of this frame).",
		metrics.SizeBytes, rankL)
	m.lent = metrics.NewCounter("aiacc_shm_lent_frames_total",
		"Frames received by Lend in place in the ring, without a copy.", rankL)
	m.reserved = metrics.NewCounter("aiacc_shm_reserved_frames_total",
		"Frames sent by Commit from a reserved ring slot, without a copy.", rankL)
	m.fallbacks = metrics.NewCounter("aiacc_shm_reserve_fallbacks_total",
		"Reserve calls that got no slot (ring full, lane busy or frame above half the ring).", rankL)
	m.send = waitCounters{
		spins: metrics.NewCounter("aiacc_shm_send_spin_waits_total",
			"Send blocking episodes resolved within the spin/yield phase.", rankL),
		parks: metrics.NewCounter("aiacc_shm_send_park_waits_total",
			"Send blocking episodes that blocked (on a wake in process, in timed sleeps under Attach).", rankL),
		backstops: metrics.NewCounter("aiacc_shm_send_backstop_wakes_total",
			"Send parks ended by the backstop timer rather than by a signal, though the peer had moved (lost wake-up canary).", rankL),
	}
	m.recv = waitCounters{
		spins: metrics.NewCounter("aiacc_shm_recv_spin_waits_total",
			"Recv blocking episodes resolved within the spin/yield phase.", rankL),
		parks: metrics.NewCounter("aiacc_shm_recv_park_waits_total",
			"Recv blocking episodes that blocked (on a wake in process, in timed sleeps under Attach).", rankL),
		backstops: metrics.NewCounter("aiacc_shm_recv_backstop_wakes_total",
			"Recv parks ended by the backstop timer rather than by a signal, though the peer had moved (lost wake-up canary).", rankL),
	}
	return m
}

func (m *shmMetrics) countTx(idx, bytes int) {
	m.txBytes[idx].Add(int64(bytes))
	m.txFrames[idx].Inc()
}

func (m *shmMetrics) countRx(idx, bytes int) {
	m.rxBytes[idx].Add(int64(bytes))
	m.rxFrames[idx].Inc()
}

// observeOccupancy samples the bytes already queued in the lane.
func (m *shmMetrics) observeOccupancy(l *lane) {
	if !metrics.Enabled() {
		return
	}
	m.ringOcc.Observe(int64(l.tail.Load() - l.head.Load()))
}
