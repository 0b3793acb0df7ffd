package autotune

import (
	"fmt"
	"slices"

	"aiacc/cluster"
	"aiacc/netmodel"
)

// SimConfig applies p to the engine of a simulated AIACC deployment: the
// simulator's counterpart of train.ApplyParams, shared by every simulator
// caller. The simulator prices the two-level schedule only at the topology's
// node boundary and, like the live engine, with one priority class; any
// other tree point is an error wrapping cluster.ErrBadConfig.
func SimConfig(base cluster.Config, p Params) (cluster.Config, error) {
	cfg := base
	cfg.Engine.Streams = p.Streams
	cfg.Engine.GranularityBytes = p.GranularityBytes
	cfg.Engine.SegmentBytes = p.SegmentBytes
	cfg.Engine.PriorityDepth = p.PriorityDepth
	cfg.Engine.Algorithm = cluster.Ring
	if p.Algorithm == AlgoTree {
		if p.GPUsPerNode != base.Topology.GPUsPerNode || p.PriorityDepth > 1 {
			return cfg, fmt.Errorf("%w: tree point %v on %d GPUs per node", cluster.ErrBadConfig, p, base.Topology.GPUsPerNode)
		}
		cfg.Engine.Algorithm = cluster.Hierarchical
	}
	return cfg, nil
}

// SimEvaluator prices points on the simulator at base: simulated seconds per
// iteration, or 1e9 for a point the simulator rejects.
func SimEvaluator(base cluster.Config) Evaluator {
	return func(p Params, _ int) float64 {
		cfg, err := SimConfig(base, p)
		if err == nil {
			var res cluster.Result
			if res, err = cluster.Simulate(cfg); err == nil {
				return res.IterTime.Seconds()
			}
		}
		return 1e9
	}
}

// ForSimulator returns s without the node groups the simulator cannot
// price: it models hierarchy only at the topology's GPUs per node.
func (s Space) ForSimulator(top netmodel.Topology) Space {
	s.NodeGroups = slices.DeleteFunc(slices.Clone(s.NodeGroups), func(g int) bool { return g != 1 && g != top.GPUsPerNode })
	return s
}
