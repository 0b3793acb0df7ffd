package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families are sorted by name and series by canonical
// label key, so output is deterministic for golden-file tests.
//
// One deliberate deviation from Prometheus convention: latency histograms
// carry an `_ns` suffix and record integer nanoseconds rather than float
// seconds — the registry is integer-only so the increment path stays free of
// float conversions (DESIGN.md §7).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

func writePrometheus(w io.Writer, snap Snapshot) error {
	bw := &errWriter{w: w}
	for _, f := range snap.Families {
		if f.Help != "" {
			bw.printf("# HELP %s %s\n", f.Name, sanitizeHelp(f.Help))
		}
		bw.printf("# TYPE %s %s\n", f.Name, f.Kind.String())
		series := append([]SeriesSnapshot(nil), f.Series...)
		sort.Slice(series, func(i, j int) bool {
			return series[i].LabelString() < series[j].LabelString()
		})
		for _, s := range series {
			lk := s.LabelString()
			switch f.Kind {
			case KindHistogram:
				writePromHistogram(bw, f.Name, lk, s.Histogram)
			default:
				bw.printf("%s%s %s\n", f.Name, braced(lk), formatFloat(s.Value))
			}
		}
	}
	return bw.err
}

func writePromHistogram(bw *errWriter, name, lk string, h *HistogramSnapshot) {
	if h == nil {
		return
	}
	for _, b := range h.Buckets {
		bw.printf("%s_bucket%s %d\n", name, braced(joinLabels(lk, fmt.Sprintf(`le="%d"`, b.UpperBound))), b.CumulativeCount)
	}
	bw.printf("%s_bucket%s %d\n", name, braced(joinLabels(lk, `le="+Inf"`)), h.Count)
	bw.printf("%s_sum%s %d\n", name, braced(lk), h.Sum)
	bw.printf("%s_count%s %d\n", name, braced(lk), h.Count)
}

func braced(lk string) string {
	if lk == "" {
		return ""
	}
	return "{" + lk + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func sanitizeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatFloat(v float64) string {
	// Counters and int gauges are exact integers; render them without
	// exponent so the output is stable and human-friendly.
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// WriteJSON renders the registry as an expvar-style JSON object: one key per
// family, each holding its series array. encoding/json sorts map keys, so the
// output is deterministic. (We intentionally do not import stdlib expvar: its
// side-effecting init registers /debug/vars on the default mux.)
func (r *Registry) WriteJSON(w io.Writer) error {
	return writeJSON(w, r.Snapshot())
}

func writeJSON(w io.Writer, snap Snapshot) error {
	type jsonFamily struct {
		Kind   string           `json:"kind"`
		Help   string           `json:"help,omitempty"`
		Series []SeriesSnapshot `json:"series"`
	}
	out := make(map[string]jsonFamily, len(snap.Families))
	for _, f := range snap.Families {
		out[f.Name] = jsonFamily{Kind: f.Kind.String(), Help: f.Help, Series: f.Series}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns an http.Handler serving the registry: Prometheus text by
// default, expvar-style JSON when the path ends in /vars or the request has
// ?format=json. Mount it in cmd/aiacc-run via --metrics-addr.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/vars") || req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the Default registry; see Registry.Handler.
func Handler() http.Handler { return Default.Handler() }
