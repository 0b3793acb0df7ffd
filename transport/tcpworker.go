package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"time"
)

// ErrRendezvous indicates the multi-process mesh could not be established
// within the dial timeout.
var ErrRendezvous = errors.New("transport: rendezvous failed")

// WorkerOption configures NewTCPWorker.
type WorkerOption func(*workerConfig)

type workerConfig struct {
	dialTimeout time.Duration
	bindRetries int
	bindDelay   time.Duration
	tcp         tcpConfig
}

// meshTimeout bounds mesh establishment: NewTCP's, and NewTCPWorker's unless
// WithDialTimeout replaces it.
const meshTimeout = 30 * time.Second

// WithDialTimeout bounds how long a worker waits for its peers to come up
// (default meshTimeout, 30s).
func WithDialTimeout(d time.Duration) WorkerOption {
	return func(c *workerConfig) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithTCPOptions applies the options NewTCP takes (operation timeout,
// heartbeat, trace) to the worker's endpoint.
func WithTCPOptions(opts ...TCPOption) WorkerOption {
	return func(c *workerConfig) {
		for _, o := range opts {
			o(&c.tcp)
		}
	}
}

// WithBindRetry tunes how persistently the worker re-attempts binding its
// listen address (default 20 attempts, 25ms apart). FreeAddrs-style
// reservations release their ports before the workers re-bind them, so
// another process can steal the port in the gap; retrying rides out the
// transient holder instead of failing the whole mesh.
func WithBindRetry(attempts int, delay time.Duration) WorkerOption {
	return func(c *workerConfig) {
		if attempts >= 1 {
			c.bindRetries = attempts
		}
		if delay > 0 {
			c.bindDelay = delay
		}
	}
}

// NewTCPWorker establishes this rank's endpoint of a TCP mesh spanning
// multiple OS processes (or machines): addrs lists every rank's listen
// address; the worker binds addrs[rank], accepts the expected incoming
// sockets and dials every peer with retries until the mesh is complete.
// This is the deployment path a real multi-node run uses — each training
// process calls NewTCPWorker with the same address list and its own rank
// (see `aiacc-run -multiproc`).
func NewTCPWorker(rank, streams int, addrs []string, opts ...WorkerOption) (Endpoint, error) {
	size := len(addrs)
	if size <= 0 {
		return nil, fmt.Errorf("%w: no addresses", ErrBadRank)
	}
	if err := checkRank(rank, size); err != nil {
		return nil, err
	}
	if streams <= 0 {
		return nil, fmt.Errorf("%w: streams %d", ErrBadStream, streams)
	}
	cfg := workerConfig{
		dialTimeout: meshTimeout,
		bindRetries: 20,
		bindDelay:   25 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}

	l, err := listenRetry(addrs[rank], cfg.bindRetries, cfg.bindDelay)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addrs[rank], err)
	}
	ep := newTCPEndpoint(rank, size, streams, cfg.tcp)
	if err := ep.establish(l, addrs, cfg.dialTimeout); err != nil {
		_ = ep.Close()
		return nil, err
	}
	return ep, nil
}

// establish builds this rank's part of the mesh: it accepts the
// (size-1)·streams sockets its peers dial into l while dialing its own to
// every addrs[to], and fails with ErrRendezvous if the mesh is incomplete
// after timeout. It closes l and waits for its accept goroutine before
// returning, so nothing it started outlives it; the heartbeat starts only on
// success. On failure the caller closes the endpoint, which releases the
// sockets already attached.
func (e *tcpEndpoint) establish(l net.Listener, addrs []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- e.acceptAll(l, (e.size-1)*e.streams, deadline) }()
	err := e.dialMesh(addrs, deadline)
	if err != nil {
		_ = l.Close() // unblock the accept loop now rather than at the deadline
	}
	aerr := <-acceptErr
	_ = l.Close()
	switch {
	case err != nil:
		return err
	case errors.Is(aerr, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w: mesh incomplete after %v", ErrRendezvous, timeout)
	case aerr != nil:
		return fmt.Errorf("accept: %w", aerr)
	}
	e.startHeartbeat()
	return nil
}

// dialMesh connects this rank's outgoing sockets in order, retrying while
// peers boot, and sends each one's handshake header: (from rank, stream).
func (e *tcpEndpoint) dialMesh(addrs []string, deadline time.Time) error {
	for to, addr := range addrs {
		if to == e.rank {
			continue
		}
		for s := 0; s < e.streams; s++ {
			conn, err := dialRetry(addr, deadline)
			if err != nil {
				return fmt.Errorf("%w: dial %d->%d: %v", ErrRendezvous, e.rank, to, err)
			}
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[0:], uint32(e.rank))
			binary.BigEndian.PutUint32(hdr[4:], uint32(s))
			if _, err := conn.Write(hdr[:]); err != nil {
				_ = conn.Close()
				return fmt.Errorf("%w: handshake %d->%d: %v", ErrRendezvous, e.rank, to, err)
			}
			e.setOut(to, s, conn)
		}
	}
	return nil
}

// listenRetry binds addr, retrying a bounded number of times while the port
// is occupied. The port may be transiently held when it came from a
// FreeAddrs-style reservation (the reservation socket is released before the
// worker re-binds, and another process can slip into the gap); a fresh port
// is no fix because every peer dials the configured address, so the only
// recovery is to wait the squatter out. Only EADDRINUSE is retried —
// permanent errors (bad address, permission denied) fail immediately.
func listenRetry(addr string, attempts int, delay time.Duration) (net.Listener, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			mBindRetries.Inc()
			time.Sleep(delay)
		}
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l, nil
		}
		lastErr = err
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, lastErr
}

// dialRetry dials addr until the deadline, backing off exponentially from
// 50ms (doubling per attempt, capped at 1s) so a mesh waiting on a slow peer
// doesn't hammer its listen queue. Transient refusals while the peer boots —
// or while it restarts after a crash, the elastic-recovery path — are
// absorbed here; only the deadline makes the failure permanent.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	const maxBackoff = time.Second
	delay := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		if attempt > 0 {
			mRedials.Inc()
		}
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if remaining := time.Until(deadline); delay > remaining {
			delay = remaining
		}
		time.Sleep(delay)
		if delay *= 2; delay > maxBackoff {
			delay = maxBackoff
		}
	}
	if lastErr == nil {
		lastErr = errors.New("deadline before first attempt")
	}
	return nil, lastErr
}

// FreeAddrs reserves n distinct loopback TCP addresses by briefly binding
// ephemeral ports. The usual caveat applies: the ports are released before
// the workers re-bind them, so collisions are possible under heavy churn —
// production deployments pass fixed, configured addresses instead.
func FreeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			_ = l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port %d: %w", i, err)
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}
