//go:build goexperiment.synctest

package vtime

import (
	"runtime"
	"testing"
	"testing/synctest"
)

// Test runs f in a fresh bubble and returns once every goroutine f started
// has exited. It is the one place that names the synctest API, which Go 1.25
// renames to synctest.Test(t, f).
//
// The bubble runs on one P. Goroutines made runnable at the same virtual
// instant then run in an order that repeats from run to run; on several Ps
// they race, and the engine's choices (which gradients a round agrees,
// which unit reaches a stream first) follow the race (DESIGN.md §8).
func Test[T testing.TB](t T, f func(t T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	synctest.Run(func() { f(t) })
}
