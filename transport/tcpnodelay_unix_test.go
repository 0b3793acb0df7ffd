//go:build unix

package transport

import (
	"net"
	"syscall"
	"testing"
)

// Nothing in the transport sets TCP_NODELAY: the mesh relies on Go's net
// package enabling it on every TCP connection. Every socket a rank writes on
// (the ones it dialed) must report it on, for NewTCP and NewTCPWorker meshes
// alike, or every small ring frame would wait behind Nagle's algorithm.
func TestTCPMeshSocketsNoDelay(t *testing.T) {
	const size, streams = 3, 2
	n, err := NewTCP(size, streams)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	for _, ep := range n.(*tcpNetwork).endpoints {
		checkNoDelay(t, "NewTCP", ep)
	}
	for _, ep := range startWorkers(t, size, streams) {
		checkNoDelay(t, "NewTCPWorker", ep.(*tcpEndpoint))
	}
}

func checkNoDelay(t *testing.T, mesh string, e *tcpEndpoint) {
	t.Helper()
	for i, w := range e.out {
		if i/e.streams == e.rank {
			continue // no self lane
		}
		w.mu.Lock()
		conn := w.conn
		w.mu.Unlock()
		raw, err := conn.(*net.TCPConn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var v int
		var gerr error
		if err := raw.Control(func(fd uintptr) {
			v, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
		}); err != nil {
			t.Fatal(err)
		}
		if gerr != nil {
			t.Fatalf("%s rank %d lane %d: getsockopt: %v", mesh, e.rank, i, gerr)
		}
		if v == 0 {
			t.Errorf("%s rank %d -> %d stream %d: TCP_NODELAY off", mesh, e.rank, i/e.streams, i%e.streams)
		}
	}
}
