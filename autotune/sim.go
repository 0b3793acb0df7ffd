package autotune

import (
	"slices"

	"aiacc/cluster"
	"aiacc/netmodel"
)

// SimEvaluator prices points on the simulator at base: simulated seconds per
// iteration, or 1e9 for a point the simulator rejects (a tree point away from
// the topology's node boundary).
func SimEvaluator(base cluster.Config) Evaluator {
	return func(p Params, _ int) float64 {
		cfg := base
		cfg.Engine.Policy = p.Apply(base.Engine.Policy)
		if res, err := cluster.Simulate(cfg); err == nil {
			return res.IterTime.Seconds()
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
