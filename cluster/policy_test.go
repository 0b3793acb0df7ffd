package cluster

import (
	"errors"
	"testing"

	"aiacc/engine"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/transport"
)

// Every rule about the communication policy lives in engine.Policy.Validate:
// the live engine and the simulator reject each invalid policy through it,
// and accept the valid one they start from.
func TestPolicyValidation(t *testing.T) {
	const ranks = 16
	net, err := transport.NewMem(ranks, engine.DefaultConfig().RequiredStreams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	comm := mpi.NewWorld(ep)
	defer comm.Close()

	check := func(name string, p engine.Policy, valid bool) {
		t.Helper()
		live := engine.DefaultConfig()
		live.Policy = p
		eng, err := engine.NewEngine(comm, live)
		if valid && err != nil || !valid && !errors.Is(err, engine.ErrBadConfig) {
			t.Errorf("%s: NewEngine error = %v", name, err)
		}
		if eng != nil {
			_ = eng.Close()
		}
		sim := aiaccConfig(ranks, model.ResNet50())
		sim.Engine.Policy = p
		_, err = Simulate(sim)
		if valid && err != nil || !valid && !(errors.Is(err, ErrBadConfig) && errors.Is(err, engine.ErrBadConfig)) {
			t.Errorf("%s: Simulate error = %v", name, err)
		}
	}
	base := engine.DefaultConfig().Policy
	check("base", base, true)
	for _, c := range []struct {
		name string
		set  func(*engine.Policy)
	}{
		{"streams 0", func(p *engine.Policy) { p.Streams = 0 }},
		{"granularity 3", func(p *engine.Policy) { p.GranularityBytes = 3 }},
		{"segment -1", func(p *engine.Policy) { p.SegmentBytes = -1 }},
		{"min sync -1", func(p *engine.Policy) { p.MinSyncBytes = -1 }},
		{"depth -1", func(p *engine.Policy) { p.PriorityDepth = -1 }},
		{"depth 3", func(p *engine.Policy) { p.PriorityDepth = 3 }},
		{"hierarchical without nodes", func(p *engine.Policy) { p.Algorithm, p.GPUsPerNode = engine.Hierarchical, 0 }},
		{"unknown algorithm", func(p *engine.Policy) { p.Algorithm = 0 }},
		{"unknown coordinator", func(p *engine.Policy) { p.Coordinator = engine.Master + 1 }},
	} {
		p := base
		c.set(&p)
		check(c.name, p, false)
	}
}

// The simulator starts a readiness round at the policy's SyncBytes, as the
// engine does: MinSyncBytes 0 is the granularity, and a smaller trigger runs
// more rounds.
func TestSimulatorHonoursMinSyncBytes(t *testing.T) {
	for _, m := range []model.Model{model.CTR(), model.BERTLarge()} {
		at := func(minSync int64) Result {
			cfg := aiaccConfig(32, m)
			cfg.Engine.MinSyncBytes = minSync
			return simOrFatal(t, cfg)
		}
		zero := at(0)
		if r := at(EngineDefaults(AIACC).GranularityBytes); r != zero {
			t.Errorf("%s: MinSyncBytes = granularity gives\n%+v, 0 gives\n%+v", m.Name, r, zero)
		}
		if r := at(1); r.SyncRounds <= zero.SyncRounds {
			t.Errorf("%s: MinSyncBytes 1 runs %d rounds, 0 runs %d", m.Name, r.SyncRounds, zero.SyncRounds)
		}
	}
}
