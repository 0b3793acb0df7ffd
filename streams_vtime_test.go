//go:build goexperiment.synctest

package aiacc_test

import (
	"math"
	"testing"
	"time"

	"aiacc/internal/vtime"
	"aiacc/netmodel"
)

// TestVTimeMultiStreamSpeedup runs TestMultiStreamSpeedupOnModeledLink's
// engine in virtual time, where the modelled link is the only clock: the
// iteration times are the same to the nanosecond on every run, and the
// speed-ups over streams are netmodel's utilization ratios, which the live
// test can only bound.
func TestVTimeMultiStreamSpeedup(t *testing.T) {
	link := netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.8,
		SingleStreamEff: 0.30,
		MaxUtilization:  0.96,
		BaseLatency:     200 * time.Microsecond,
	}
	streams := []int{1, 2, 4}
	run := func() []time.Duration {
		iter := make([]time.Duration, len(streams))
		for i, n := range streams {
			vtime.Test(t, func(t *testing.T) { iter[i] = modeledLinkIterTime(t, link, n) })
		}
		return iter
	}
	first, second := run(), run()
	for i, n := range streams {
		speedup := first[0].Seconds() / first[i].Seconds()
		want := link.Utilization(n) / link.Utilization(1)
		t.Logf("streams %d: %v/iter, speed-up %.3fx (netmodel %.3fx)", n, first[i], speedup, want)
		if first[i] != second[i] {
			t.Errorf("streams %d: %v then %v, want identical virtual times", n, first[i], second[i])
		}
		if math.Abs(speedup/want-1) > 0.02 {
			t.Errorf("streams %d: speed-up %.3fx, want within 2%% of %.3fx", n, speedup, want)
		}
	}
}
