package bench

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden")

// TestTablesGolden renders every experiment at the default tuning budget,
// the text `go run ./cmd/aiacc-bench` prints, and diffs it against
// testdata/tables.golden. Any change to the simulator's policy or
// calibration shows up here as a table diff to review; rewrite the file with
// `go test ./internal/bench/ -run TestTablesGolden -update`.
func TestTablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden tables are amd64's: other architectures fuse multiply-adds and move low digits")
	}
	tables, err := NewSuite().All()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(Render(tb))
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < 20; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d\n- %s\n+ %s", path, i+1, w, g)
			shown++
		}
	}
}
