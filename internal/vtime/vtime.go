//go:build goexperiment.synctest

package vtime

import (
	"testing"
	"testing/synctest"
)

// Test runs f in a fresh bubble and returns once every goroutine f started
// has exited. It is the one place that names the synctest API, which Go 1.25
// renames to synctest.Test(t, f).
func Test(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}
