package autotune

import (
	"math/rand"
	"sort"
)

// Grid enumerates the space's points in order, one training iteration per
// point, wrapping around when exhausted. Simple, exhaustive, and a strong
// baseline on small spaces.
type Grid struct {
	points []Params
	next   int
}

var _ Searcher = (*Grid)(nil)

// NewGrid returns a grid searcher over the space.
func NewGrid(space Space) *Grid {
	return &Grid{points: space.Points()}
}

// Name implements Searcher.
func (g *Grid) Name() string { return "grid" }

// Propose implements Searcher.
func (g *Grid) Propose(int) Proposal {
	p := Proposal{Params: g.points[g.next%len(g.points)], Iters: 1}
	g.next++
	return p
}

// Observe implements Searcher.
func (g *Grid) Observe(Proposal, float64) {}

// PBT is population based training [25]: a small population of settings is
// evaluated round-robin; after each generation the bottom half copies
// (exploits) the top half and perturbs one dimension (explores).
type PBT struct {
	space  Space
	points []Params
	rng    *rand.Rand

	population []Params
	costs      []float64
	evaluated  []bool
	cursor     int
}

var _ Searcher = (*PBT)(nil)

// NewPBT returns a PBT searcher with a population of size k spread across
// the space.
func NewPBT(space Space, k int, rng *rand.Rand) *PBT {
	if k < 2 {
		k = 2
	}
	p := &PBT{space: space, points: space.Points(), rng: rng}
	for i := range k {
		p.population = append(p.population, p.points[i*len(p.points)/k])
	}
	p.costs = make([]float64, k)
	p.evaluated = make([]bool, k)
	return p
}

// Name implements Searcher.
func (p *PBT) Name() string { return "pbt" }

// Propose implements Searcher.
func (p *PBT) Propose(int) Proposal {
	member := p.cursor % len(p.population)
	return Proposal{Params: p.population[member], Iters: 1}
}

// Observe implements Searcher.
func (p *PBT) Observe(prop Proposal, cost float64) {
	member := p.cursor % len(p.population)
	p.costs[member] = cost
	p.evaluated[member] = true
	p.cursor++
	if p.cursor%len(p.population) == 0 {
		p.evolve()
	}
}

// evolve replaces the worst half of the population with perturbed copies of
// the best half.
func (p *PBT) evolve() {
	k := len(p.population)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.costs[order[a]] < p.costs[order[b]] })
	for i := k / 2; i < k; i++ {
		src := order[i-k/2]
		dst := order[i]
		p.population[dst] = p.space.neighbor(p.points, p.population[src], p.rng.Intn(len(dims)), 1-2*p.rng.Intn(2))
	}
}

// Hyperband [27] runs successive-halving brackets: many settings with a tiny
// iteration budget, the survivors re-evaluated with geometrically larger
// budgets.
type Hyperband struct {
	points []Params
	rng    *rand.Rand
	eta    int
	rMax   int

	rung    []hbCandidate // current rung, ordered
	rungIdx int           // next candidate to evaluate
	budget  int           // iterations per candidate at this rung
}

type hbCandidate struct {
	params Params
	cost   float64
	seen   bool
}

var _ Searcher = (*Hyperband)(nil)

// NewHyperband returns a Hyperband searcher with halving factor eta and a
// maximum of rMax iterations per candidate.
func NewHyperband(space Space, eta, rMax int, rng *rand.Rand) *Hyperband {
	if eta < 2 {
		eta = 3
	}
	if rMax < 1 {
		rMax = 9
	}
	h := &Hyperband{points: space.Points(), rng: rng, eta: eta, rMax: rMax}
	h.newBracket()
	return h
}

// Name implements Searcher.
func (h *Hyperband) Name() string { return "hyperband" }

func (h *Hyperband) newBracket() {
	// Start a bracket with eta² distinct random candidates at budget 1.
	h.rung = h.rung[:0]
	for _, i := range h.rng.Perm(len(h.points))[:min(h.eta*h.eta, len(h.points))] {
		h.rung = append(h.rung, hbCandidate{params: h.points[i]})
	}
	h.rungIdx = 0
	h.budget = 1
}

// Propose implements Searcher.
func (h *Hyperband) Propose(remaining int) Proposal {
	iters := h.budget
	if iters > remaining && remaining > 0 {
		iters = remaining
	}
	return Proposal{Params: h.rung[h.rungIdx].params, Iters: iters}
}

// Observe implements Searcher.
func (h *Hyperband) Observe(prop Proposal, cost float64) {
	h.rung[h.rungIdx].cost = cost
	h.rung[h.rungIdx].seen = true
	h.rungIdx++
	if h.rungIdx < len(h.rung) {
		return
	}
	// Rung complete: keep the best 1/eta at eta× budget.
	sort.Slice(h.rung, func(a, b int) bool { return h.rung[a].cost < h.rung[b].cost })
	keep := len(h.rung) / h.eta
	nextBudget := h.budget * h.eta
	if keep < 1 || nextBudget > h.rMax {
		h.newBracket()
		return
	}
	h.rung = h.rung[:keep]
	for i := range h.rung {
		h.rung[i].seen = false
	}
	h.rungIdx = 0
	h.budget = nextBudget
}
