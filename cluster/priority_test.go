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
// volume: with one class the embedding's units queue behind earlier ones,
// stalling the next forward's very first layer.
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
// (checked inside Simulate), and depths 0 and 1 are the same one-class
// setting: their Results are identical.
func TestPriorityDepthSweep(t *testing.T) {
	cases := []struct {
		m           model.Model
		gpus        int
		streams     int   // 0 keeps the AIACC default
		granularity int64 // 0 keeps the AIACC default
	}{
		{m: model.CTR(), gpus: 16},
		{m: model.ResNet50(), gpus: 16},
		{m: model.VGG16(), gpus: 16, streams: 1, granularity: 1 << 20},
		{m: model.VGG16(), gpus: 64, streams: 1, granularity: 1 << 20},
	}
	for _, c := range cases {
		var byDepth [3]Result
		for depth := range byDepth {
			cfg := priorityConfig(c.gpus, c.m, depth)
			if c.streams > 0 {
				cfg.Engine.Streams = c.streams
			}
			if c.granularity > 0 {
				cfg.Engine.GranularityBytes = c.granularity
			}
			byDepth[depth] = simOrFatal(t, cfg)
			if byDepth[depth].CriticalPath <= 0 {
				t.Errorf("%s@%d depth=%d: CriticalPath=%v", c.m.Name, c.gpus, depth, byDepth[depth].CriticalPath)
			}
		}
		if byDepth[0] != byDepth[1] {
			t.Errorf("%s@%d: depth 0 and 1 differ:\n%+v\n%+v", c.m.Name, c.gpus, byDepth[0], byDepth[1])
		}
	}
}

// Only AIACC runs depth 2: the baselines have no preemption to price. The
// settings themselves are engine.Policy's rules (TestPolicyValidation), which
// accept depth 2 under both algorithms.
func TestPriorityDepthValidation(t *testing.T) {
	for _, kind := range []EngineKind{Horovod, PyTorchDDP, BytePS, MXNetPS} {
		cfg := baselineConfig(32, model.BERTLarge(), kind)
		cfg.Engine.PriorityDepth = 2
		if _, err := Simulate(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%v at PriorityDepth 2: err = %v, want ErrBadConfig", kind, err)
		}
	}
}
