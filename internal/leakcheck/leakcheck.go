// Package leakcheck provides goroutine- and buffer-accounting helpers for
// the failure-path tests (DESIGN.md §8): after a collective unwinds through a
// fault, no goroutine may be left blocked on a dead lane and every pooled
// buffer the operation borrowed must be back in internal/bufpool.
//
// The goroutine balance is exact. Every goroutine belongs to the object
// that started it: transports to their network, sender goroutines
// (internal/sendpool) to the communicator's pool, which mpi.Comm.Close
// retires. So a test that closes what it built must come back to precisely
// the goroutine count it started from. Goroutines polls for that, because
// retired goroutines exit asynchronously; a genuine leak (a reader parked on
// a wedged Recv, a writer that never exited, one parked sender of an
// unclosed communicator) holds the count above the baseline and fails the
// deadline.
package leakcheck

import (
	"fmt"
	"runtime"
	"time"

	"aiacc/internal/bufpool"
)

// Snapshot is a point-in-time goroutine and buffer-pool baseline.
type Snapshot struct {
	goroutines  int
	outstanding int64
}

// Take records the current goroutine count and bufpool balance. Call it
// before building the transport under test.
func Take() Snapshot {
	return Snapshot{
		goroutines:  runtime.NumGoroutine(),
		outstanding: bufpool.Outstanding(),
	}
}

// Goroutines polls until the goroutine count returns to the baseline or the
// deadline passes. It returns an error naming the excess (with a stack dump)
// on timeout.
func (s Snapshot) Goroutines(deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for {
		if runtime.NumGoroutine() <= s.goroutines {
			return nil
		}
		if time.Now().After(limit) {
			break
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return fmt.Errorf("leakcheck: %d goroutines (baseline %d) after %v\n%s",
		runtime.NumGoroutine(), s.goroutines, deadline, buf[:n])
}

// Buffers polls until bufpool's outstanding-buffer balance returns to the
// baseline or the deadline passes. Every buffer an errored collective
// borrowed — payloads in flight, codec scratch, receive frames — must have
// been recycled on the unwind path for this to hold.
func (s Snapshot) Buffers(deadline time.Duration) error {
	limit := time.Now().Add(deadline)
	for {
		d := bufpool.Outstanding() - s.outstanding
		if d <= 0 {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("leakcheck: %d pooled buffers outstanding after %v", d, deadline)
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
}
