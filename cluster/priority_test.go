package cluster

import (
	"errors"
	"testing"

	"aiacc/model"
)

// priorityConfig returns an AIACC deployment with the given scheduler depth.
func priorityConfig(gpus int, m model.Model, depth int) Config {
	cfg := aiaccConfig(gpus, m)
	cfg.Engine.PriorityDepth = depth
	return cfg
}

// The priority scheduler must shorten the next-forward critical path on the
// CTR model, whose first layer (the embedding table) dominates gradient
// volume: unscheduled FIFO packing delivers the embedding last, stalling the
// next forward's very first layer.
func TestPrioritySchedImprovesCTRCriticalPath(t *testing.T) {
	base := simOrFatal(t, priorityConfig(32, model.CTR(), 0))
	prio := simOrFatal(t, priorityConfig(32, model.CTR(), 2))
	if base.CriticalPath <= 0 || prio.CriticalPath <= 0 {
		t.Fatalf("degenerate critical paths: base=%v prio=%v", base.CriticalPath, prio.CriticalPath)
	}
	if prio.CriticalPath >= base.CriticalPath {
		t.Errorf("priority scheduling did not shorten the CTR critical path: depth0=%v depth2=%v",
			base.CriticalPath, prio.CriticalPath)
	}
	// The scheduler reorders units, it does not add wire bytes: iteration
	// time must stay within a few percent of the unscheduled run.
	ratio := prio.IterTime.Seconds() / base.IterTime.Seconds()
	if ratio > 1.05 || ratio < 0.80 {
		t.Errorf("IterTime moved too much under scheduling: depth0=%v depth2=%v (ratio %.3f)",
			base.IterTime, prio.IterTime, ratio)
	}
}

// On a uniform profile (BERT-Large, gradient volume spread evenly across
// layers) priority scheduling should be roughly neutral: no layer dominates,
// so reordering buys little and must cost nothing.
func TestPrioritySchedNeutralOnUniformProfile(t *testing.T) {
	base := simOrFatal(t, priorityConfig(32, model.BERTLarge(), 0))
	prio := simOrFatal(t, priorityConfig(32, model.BERTLarge(), 2))
	if prio.CriticalPath > base.CriticalPath*110/100 {
		t.Errorf("priority scheduling hurt the uniform profile: depth0=%v depth2=%v",
			base.CriticalPath, prio.CriticalPath)
	}
	ratio := prio.IterTime.Seconds() / base.IterTime.Seconds()
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("IterTime moved under scheduling on a uniform profile: depth0=%v depth2=%v",
			base.IterTime, prio.IterTime)
	}
}

// Every accepted depth simulates cleanly and preserves the volume invariant
// (checked inside Simulate).
func TestPriorityDepthSweep(t *testing.T) {
	for _, depth := range []int{0, 1, 2} {
		for _, m := range []model.Model{model.CTR(), model.ResNet50()} {
			res := simOrFatal(t, priorityConfig(16, m, depth))
			if res.CriticalPath <= 0 {
				t.Errorf("%s depth=%d: CriticalPath=%v", m.Name, depth, res.CriticalPath)
			}
		}
	}
}

// Only 0, 1 and 2 are priority settings.
func TestPriorityDepthValidation(t *testing.T) {
	for _, depth := range []int{-1, 3} {
		if _, err := Simulate(priorityConfig(8, model.CTR(), depth)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("PriorityDepth %d: err = %v, want ErrBadConfig", depth, err)
		}
	}
}
