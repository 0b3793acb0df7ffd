// Package autotune finds the gradient-communication hyper-parameters of
// AIACC-Training at runtime (§VI): the all-reduce algorithm, the number of
// concurrent communication streams, the all-reduce unit granularity, the
// ring wire-pipelining segment size, the hierarchy topology (GPUs per node
// group) and the priority setting.
//
// The search problem is formulated as a multi-armed bandit over an ensemble
// of search techniques — grid search, population based training, Bayesian
// optimization and Hyperband — coordinated by a meta solver with a sliding
// window and AUC credit assignment (the OpenTuner-style bandit of [28]).
// Every candidate evaluation runs real training iterations, so the warm-up
// budget also contributes training progress and no computation is wasted.
//
// Previously found settings are cached keyed by the DNN computation graph
// and the network topology graph; a new deployment warm-starts from the
// most similar cache entry under graph edit distance (package ged).
package autotune

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"aiacc/metrics"
)

// ErrBadSpace indicates an empty or inconsistent search space.
var ErrBadSpace = errors.New("autotune: bad search space")

// Algorithm names searched by the tuner.
const (
	AlgoRing = "ring"
	AlgoTree = "tree"
)

// Params is one point in the communication-parameter space.
type Params struct {
	// Streams is the number of concurrent communication streams.
	Streams int
	// GranularityBytes is the all-reduce unit size.
	GranularityBytes int64
	// Algorithm is AlgoRing or AlgoTree.
	Algorithm string
	// SegmentBytes is the ring wire-pipelining segment size (fp32 data bytes
	// per wire frame).
	SegmentBytes int64
	// GPUsPerNode is the hierarchy topology for AlgoTree: ranks per node
	// group of the two-level schedule. 1 means flat (every rank its own
	// node), which is the ring; ring points of a Space carry 1.
	GPUsPerNode int
	// PriorityDepth is the priority setting (engine.Config.PriorityDepth):
	// 0 and 1 both mean one class, 2 gives each priority its own class and
	// preempts in-flight units at segment boundaries. Ring only: the tree
	// runs one class, so tree points of a Space carry 1.
	PriorityDepth int
}

// String implements fmt.Stringer.
func (p Params) String() string {
	fields := make([]string, len(dims))
	for i, d := range dims {
		fields[i] = d.name + "=" + d.show(p)
	}
	return "{" + strings.Join(fields, " ") + "}"
}

// Space is the discrete search space: the candidate values of each
// dimension. It enumerates only distinct configurations (Points).
type Space struct {
	// Streams lists candidate stream counts, ascending.
	Streams []int
	// Granularities lists candidate unit sizes in bytes, ascending.
	Granularities []int64
	// Algorithms lists candidate all-reduce algorithms.
	Algorithms []string
	// Segments lists candidate ring pipelining segment sizes in bytes,
	// ascending.
	Segments []int64
	// NodeGroups lists candidate GPUsPerNode values for the hierarchical
	// algorithm, ascending. A deployment drops the groups it cannot form
	// (ForWorld, ForSimulator) before it searches.
	NodeGroups []int
	// Depths lists candidate PriorityDepth values, ascending: a subset of
	// {1, 2}. Only the ring schedules by priority.
	Depths []int
}

// DefaultSpace returns the space AIACC-Training searches in production:
// ring and tree all-reduce, 1-24 streams (§VIII-D), 512 KiB - 64 MiB units,
// 64 KiB - 4 MiB wire segments, node groups of 1 (flat) to 8, and the two
// priority settings: one class (1) and one class per priority (2).
// Intermediate class counts never won the depth sweep (EXPERIMENTS.md "One
// priority setting").
func DefaultSpace() Space {
	return Space{
		Streams:       []int{1, 2, 4, 8, 12, 16, 24},
		Granularities: []int64{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20},
		Algorithms:    []string{AlgoRing, AlgoTree},
		Segments:      []int64{64 << 10, 128 << 10, 256 << 10, 1 << 20, 4 << 20},
		NodeGroups:    []int{1, 2, 4, 8},
		Depths:        []int{1, 2},
	}
}

// dimension is one axis of the tuning space: where a Space declares its
// values, which Params field takes them, how the field prints, and the gauge
// that reports it for the best configuration. Every per-dimension operation
// is a loop over dims.
type dimension struct {
	name   string
	size   func(Space) int
	index  func(Space, Params) int // position of p's value; -1 if not declared
	set    func(*Params, Space, int)
	keep   func(s *Space, lo, hi int) // restrict the declared values to [lo, hi]
	show   func(Params) string
	report func(Params) // nil when no gauge reports the dimension
}

// dims is the dimension table, in enumeration order (first outermost).
var dims = []dimension{
	axis("algo", func(s *Space) *[]string { return &s.Algorithms }, func(p *Params) *string { return &p.Algorithm }),
	count("streams", "", metrics.NewGauge("aiacc_autotune_best_streams",
		"Streams setting of the current best configuration."),
		func(s *Space) *[]int { return &s.Streams }, func(p *Params) *int { return &p.Streams }),
	count("granularity", "KiB", metrics.NewGauge("aiacc_autotune_best_granularity_bytes",
		"Granularity of the current best configuration."),
		func(s *Space) *[]int64 { return &s.Granularities }, func(p *Params) *int64 { return &p.GranularityBytes }),
	count("segment", "KiB", metrics.NewGauge("aiacc_autotune_best_segment_bytes",
		"Ring wire-pipelining segment size of the current best configuration."),
		func(s *Space) *[]int64 { return &s.Segments }, func(p *Params) *int64 { return &p.SegmentBytes }),
	count("perNode", "", metrics.NewGauge("aiacc_autotune_best_gpus_per_node",
		"Hierarchy node-group size of the current best configuration (1 = flat)."),
		func(s *Space) *[]int { return &s.NodeGroups }, func(p *Params) *int { return &p.GPUsPerNode }),
	count("prio", "", metrics.NewGauge("aiacc_autotune_best_priority_depth",
		"Priority setting of the current best configuration (1 = one class, 2 = one class per priority)."),
		func(s *Space) *[]int { return &s.Depths }, func(p *Params) *int { return &p.PriorityDepth }),
}

// axis describes the dimension whose values Space keeps in list and Params
// in field.
func axis[T int | int64 | string](name string, list func(*Space) *[]T, field func(*Params) *T) dimension {
	return dimension{
		name:  name,
		size:  func(s Space) int { return len(*list(&s)) },
		index: func(s Space, p Params) int { return slices.Index(*list(&s), *field(&p)) },
		set:   func(p *Params, s Space, i int) { *field(p) = (*list(&s))[i] },
		keep:  func(s *Space, lo, hi int) { l := list(s); *l = slices.Clone((*l)[lo : hi+1]) },
		show:  func(p Params) string { return fmt.Sprint(*field(&p)) },
	}
}

// count is an integer axis reported by gauge; unit "KiB" prints a byte
// count in KiB.
func count[T int | int64](name, unit string, gauge *metrics.Gauge, list func(*Space) *[]T, field func(*Params) *T) dimension {
	d := axis(name, list, field)
	if unit == "KiB" {
		d.show = func(p Params) string { return fmt.Sprintf("%dKiB", int64(*field(&p))>>10) }
	}
	d.report = func(p Params) { gauge.Set(int64(*field(&p))) }
	return d
}

// canonical maps p to the one point that stands for every configuration the
// engine runs identically: the tree runs one class; a tree of node groups of
// 1 is the flat ring; the ring ignores the node group, so ring points carry
// 1 (flat); PriorityDepth 0 and 1 are the same one class, whose point is 1.
func canonical(p Params) Params {
	if p.Algorithm == AlgoTree {
		p.PriorityDepth = 1
		if p.GPUsPerNode == 1 {
			p.Algorithm = AlgoRing
		}
	}
	if p.Algorithm != AlgoTree {
		p.GPUsPerNode = 1
	}
	p.PriorityDepth = max(p.PriorityDepth, 1)
	return p
}

// Validate checks that every dimension declares at least one value and that
// every algorithm is known.
func (s Space) Validate() error {
	sizes := make([]string, len(dims))
	empty := false
	for i, d := range dims {
		sizes[i] = fmt.Sprintf("%d %s", d.size(s), d.name)
		empty = empty || d.size(s) == 0
	}
	if empty {
		return fmt.Errorf("%w: %s", ErrBadSpace, strings.Join(sizes, " x "))
	}
	for _, a := range s.Algorithms {
		if a != AlgoRing && a != AlgoTree {
			return fmt.Errorf("%w: algorithm %q", ErrBadSpace, a)
		}
	}
	return nil
}

// Points returns the distinct configurations of s: the Cartesian product of
// the declared values in the dimension table's lexicographic order, each
// mapped to its canonical point, first occurrence kept; nil for an invalid
// space. Searchers capture it once.
func (s Space) Points() []Params {
	if s.Validate() != nil {
		return nil
	}
	var out []Params
	seen := make(map[Params]bool)
	var walk func(p Params, k int)
	walk = func(p Params, k int) {
		if k == len(dims) {
			if p = canonical(p); !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
			return
		}
		for i := range dims[k].size(s) {
			dims[k].set(&p, s, i)
			walk(p, k+1)
		}
	}
	walk(Params{}, 0)
	return out
}

// Size returns the number of distinct configurations.
func (s Space) Size() int { return len(s.Points()) }

// Neighbor moves dimension dim of p one declared value in direction dir
// (±1) and returns the nearest point of s with the new value — the PBT
// explore move. Other dimensions move only as the space requires (a ring
// point moved to the tree takes the nearest node group). p comes back
// unchanged when its value is not declared or the step is clamped away.
func (s Space) Neighbor(p Params, dim, dir int) Params {
	return s.neighbor(s.Points(), p, dim, dir)
}

func (s Space) neighbor(points []Params, p Params, dim, dir int) Params {
	d := dims[dim]
	i := d.index(s, p)
	j := min(max(i+dir, 0), d.size(s)-1)
	if i < 0 || j == i {
		return p
	}
	want := p
	d.set(&want, s, j)
	best, bestDist := p, math.MaxInt
	for _, q := range points {
		dist := 0 // steps between q and want, summed over dimensions
		for _, e := range dims {
			dist += max(e.index(s, q)-e.index(s, want), e.index(s, want)-e.index(s, q))
		}
		if d.index(s, q) == j && dist < bestDist {
			best, bestDist = q, dist
		}
	}
	return best
}

// Around returns the sub-space of s within one declared value of p in every
// dimension where p's value is declared: the warm-start neighbourhood of a
// cached optimum.
func (s Space) Around(p Params) Space {
	sub := s
	for _, d := range dims {
		if i := d.index(s, p); i >= 0 {
			d.keep(&sub, max(i-1, 0), min(i+1, d.size(s)-1))
		}
	}
	return sub
}

// ForWorld returns s without the node groups a world of size ranks cannot
// form: the two-level schedule needs equally sized nodes, so the space never
// proposes them.
func (s Space) ForWorld(size int) Space {
	s.NodeGroups = slices.DeleteFunc(slices.Clone(s.NodeGroups), func(g int) bool { return g <= 0 || size%g != 0 })
	return s
}

// Normalize maps p to [0,1]^len(dims) for the Bayesian optimizer's kernel:
// each value's position among its dimension's declared values, first 0 and
// last 1 (0 where p's value is not declared; the declared values of the
// numeric dimensions grow geometrically, so this is a log scale).
func (s Space) Normalize(p Params) []float64 {
	v := make([]float64, len(dims))
	for k, d := range dims {
		if i, n := d.index(s, p), d.size(s); i > 0 && n > 1 {
			v[k] = float64(i) / float64(n-1)
		}
	}
	return v
}

// Proposal is one candidate evaluation request: run Iters training
// iterations with Params and report the mean per-iteration cost.
type Proposal struct {
	// Params is the candidate setting.
	Params Params
	// Iters is the number of training iterations to spend.
	Iters int
}

// Evaluator runs iters training iterations under p and returns the mean
// seconds per iteration (lower is better).
type Evaluator func(p Params, iters int) float64

// Searcher is one technique in the ensemble.
type Searcher interface {
	// Name identifies the technique.
	Name() string
	// Propose returns the next candidate; remaining is the unspent tuning
	// budget in iterations.
	Propose(remaining int) Proposal
	// Observe reports the evaluated cost of a prior proposal.
	Observe(p Proposal, cost float64)
}
