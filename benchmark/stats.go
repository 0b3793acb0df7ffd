package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// forwardShare is the fixed per-layer compute of the emulated next forward
// pass: half the scheduled backward spread over the layers, at least 100 µs.
func forwardShare(scheduledBackward time.Duration, layers int) time.Duration {
	return max(scheduledBackward/time.Duration(layers)/2, 100*time.Microsecond)
}

// forwardStall walks the next forward pass as the S-SGD DAG: it may begin
// when the scheduled backward ends, layer l starts once layers 0..l-1 ran
// and layer l's gradient arrived (layerDone, relative to the iteration
// start), and each layer computes for share. The result is how far the
// forward finishes beyond pure compute.
func forwardStall(layerDone []time.Duration, scheduledBackward, share time.Duration) time.Duration {
	t := scheduledBackward
	for _, done := range layerDone {
		t = max(t, done) + share
	}
	return t - scheduledBackward - time.Duration(len(layerDone))*share
}
