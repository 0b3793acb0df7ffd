// Package vtime runs tests in virtual time: inside a testing/synctest bubble
// the clock advances only when every goroutine of the bubble is durably
// blocked, so the real engine over memnet's modelled link
// (transport.WithModeledLink) runs in the link model's time, the same
// nanoseconds on every run, at a small fraction of the wall time. CPU work
// costs nothing in virtual time.
//
// testing/synctest exists only under GOEXPERIMENT=synctest in Go 1.24, so
// the helper is built under that tag alone; this file keeps the package
// visible to untagged builds. Run the virtual-time tests with `make vtime`.
// A bubble must close everything it opened (networks, engines,
// communicators) before it returns. DESIGN.md §8 states the limits: memnet
// only, no CPU-bound answers, a lock held across a channel operation shows
// up as a bubble deadlock, and a run repeats to the nanosecond only on one P
// (Test sets GOMAXPROCS to 1), and even then not on every shape.
package vtime
