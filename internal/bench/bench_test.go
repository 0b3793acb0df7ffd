package bench

import (
	"strconv"
	"strings"
	"testing"

	"aiacc/model"
)

// suite returns a Suite with a reduced tuning budget to keep tests fast.
func suite() *Suite {
	s := NewSuite()
	s.TuneBudget = 20
	return s
}

func TestRender(t *testing.T) {
	tb := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := Render(tb)
	for _, want := range []string{"== x: demo ==", "a", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// Every experiment must produce a non-empty, rectangular table.
func TestAllExperimentsProduceTables(t *testing.T) {
	tables, err := suite().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 19 {
		t.Fatalf("got %d tables, want 19", len(tables))
	}
	seen := map[string]bool{}
	for i, tb := range tables {
		if id := Experiments[i].ID; tb.ID != id {
			t.Errorf("experiment %q renders table %q", id, tb.ID)
		}
		if tb.ID == "" || tb.Title == "" {
			t.Errorf("table missing identity: %+v", tb)
		}
		if seen[tb.ID] {
			t.Errorf("duplicate table id %q", tb.ID)
		}
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s row %d: %d cells for %d columns", tb.ID, i, len(row), len(tb.Header))
			}
		}
	}
	for _, id := range []string{"table1", "fig2", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "streamutil", "production", "dawnbench", "autotune"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

// parseSpeedup extracts the numeric value of a "N.NNx" cell.
func parseSpeedup(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q: %v", cell, err)
	}
	return v
}

// The headline shapes of the paper must hold in the regenerated tables.
func TestPaperShapes(t *testing.T) {
	s := suite()

	t.Run("fig2 efficiency degrades", func(t *testing.T) {
		tb, err := s.Fig2()
		if err != nil {
			t.Fatal(err)
		}
		last := tb.Rows[len(tb.Rows)-1]
		eff, err := strconv.Atoi(strings.TrimSuffix(last[3], "%"))
		if err != nil {
			t.Fatal(err)
		}
		if eff < 60 || eff > 90 {
			t.Errorf("Horovod 32-GPU efficiency = %d%%, paper ~75%%", eff)
		}
	})

	t.Run("fig14 speedup grows as batch shrinks", func(t *testing.T) {
		tb, err := s.Fig14()
		if err != nil {
			t.Fatal(err)
		}
		first := parseSpeedup(t, tb.Rows[0][3])
		last := parseSpeedup(t, tb.Rows[len(tb.Rows)-1][3])
		if first <= last {
			t.Errorf("speedup at smallest batch (%.2f) must exceed largest (%.2f)", first, last)
		}
	})

	t.Run("fig15 gpt2 is the biggest RDMA win", func(t *testing.T) {
		tb, err := s.Fig15()
		if err != nil {
			t.Fatal(err)
		}
		var gpt2, maxOther float64
		for _, row := range tb.Rows {
			v := parseSpeedup(t, row[3])
			if row[0] == "gpt2xl" {
				gpt2 = v
			} else if v > maxOther {
				maxOther = v
			}
		}
		if gpt2 < 5 {
			t.Errorf("GPT-2 RDMA speedup = %.1fx, paper 9.8x", gpt2)
		}
		if gpt2 < maxOther {
			t.Errorf("GPT-2 (%.1fx) must be the largest speedup (max other %.1fx)", gpt2, maxOther)
		}
	})

	t.Run("production ctr speedup is large", func(t *testing.T) {
		tb, err := s.Production()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tb.Rows {
			v := parseSpeedup(t, row[3])
			switch row[0] {
			case "ctr":
				if v < 5 {
					t.Errorf("CTR speedup = %.1fx, paper 13.4x", v)
				}
			case "insightface":
				if v < 2.5 {
					t.Errorf("InsightFace speedup = %.1fx, paper 3.8x", v)
				}
			}
		}
	})

	t.Run("congestion flips ring vs tree", func(t *testing.T) {
		tb, err := s.AblationCongestion()
		if err != nil {
			t.Fatal(err)
		}
		// Uncongested (first row): ring wins or ties. Heavily congested
		// (last row): the hierarchical all-reduce must win (§V-B).
		first := parseSpeedup(t, tb.Rows[0][3])
		last := parseSpeedup(t, tb.Rows[len(tb.Rows)-1][3])
		if first > 1.02 {
			t.Errorf("uncongested hier/ring = %.2f, want <= ~1", first)
		}
		if last < 1.05 {
			t.Errorf("congested hier/ring = %.2f, want > 1 (tree must win)", last)
		}
	})

	t.Run("autotune picks multi-stream at scale", func(t *testing.T) {
		tb, err := s.AutoTuneStudy()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tb.Rows {
			streams, err := strconv.Atoi(row[2])
			if err != nil {
				t.Fatal(err)
			}
			if streams < 1 || streams > 24 {
				t.Errorf("%s@%s: tuned streams = %d outside the paper's 2-24 range", row[0], row[1], streams)
			}
			gpus, _ := strconv.Atoi(row[1])
			if gpus >= 64 && streams < 2 {
				t.Errorf("%s@%d: expected multiple streams at scale, got %d", row[0], gpus, streams)
			}
		}
	})
}

// The tuning cache must warm-start similar deployments: tuning the same
// model at a nearby scale after a first tune must reuse the cached
// neighborhood (observable via identical results and no error).
func TestSuiteTuningCacheReuse(t *testing.T) {
	s := suite()
	p1, err := s.Tuned(mustModel(t, "resnet50"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.Len() != 1 {
		t.Errorf("cache size = %d, want 1", s.cache.Len())
	}
	p2, err := s.Tuned(mustModel(t, "resnet50"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("memoized tuning changed: %v vs %v", p1, p2)
	}
	// A nearby deployment warm-starts from the cache (smaller space, still
	// valid result).
	p3, err := s.Tuned(mustModel(t, "resnet50"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Streams <= 0 || p3.GranularityBytes <= 0 {
		t.Errorf("warm-started tuning returned %v", p3)
	}
}

func mustModel(t *testing.T, name string) model.Model {
	t.Helper()
	m, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
