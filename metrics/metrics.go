// Package metrics is the process-wide observability registry of the AIACC
// reproduction: atomically-updated counters, gauges and fixed-bucket
// histograms that every layer of the live path (transport, buffer pool,
// collectives, engine, gradient synchronization, auto-tuner) reports into.
//
// The paper's claims — multi-stream overlap, per-stream bandwidth efficiency,
// fused-granularity trade-offs, MAB tuner convergence (§III, §V, §VI) — are
// measurable properties of a running system; this package is how the
// reproduction measures them in production rather than only in benchmarks.
//
// Design constraints, in order:
//
//  1. The increment path (Counter.Add, Gauge.Set, Histogram.Observe) is
//     lock-free and performs zero heap allocations — it sits inside the
//     0-alloc data plane of DESIGN.md §6 and must not regress it. All hot
//     operations are single atomic RMWs; histograms bucket by a power-of-two
//     index computed with bits.Len64.
//  2. Instrument *creation* is get-or-create under a registry mutex and may
//     allocate freely: instruments are created at mesh/engine setup, never
//     per message.
//  3. Exposition is pull-based and read-only: Snapshot returns typed structs,
//     WritePrometheus / WriteJSON render them, and Handler serves both over
//     HTTP (cmd/aiacc-run's --metrics-addr).
//
// SetEnabled(false) turns every sink into a no-op (one atomic bool load on
// the increment path); the overhead gate benchmark uses it to bound the cost
// of instrumentation against an uninstrumented run of the same binary.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every sink; see SetEnabled.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all metric sinks on or off process-wide. Disabled sinks
// drop updates (one atomic load per call); registration, snapshots and
// exposition keep working. Intended for A/B overhead measurement.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether metric sinks are recording. Hot paths may use it
// to skip work that only feeds metrics (e.g. extra clock reads).
func Enabled() bool { return enabled.Load() }

// Label is one name/value pair attached to an instrument. A (name, label set)
// pair identifies a series; the same pair always returns the same instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Kind discriminates instrument families.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindFloatGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindFloatGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing int64. The zero value is usable but
// unregistered; instruments normally come from Registry.Counter. A nil
// *Counter is a valid no-op sink, so optional instrumentation needs no nil
// checks at the call site.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n (n must be >= 0; negative deltas are
// dropped to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 that can go up and down. Nil receivers are no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float64 gauge (stored as IEEE-754 bits in a uint64).
// Nil receivers are no-ops.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// BucketLayout fixes a histogram's power-of-two buckets: bucket i has the
// inclusive upper bound 1<<(MinExp+i) for i in [0, Buckets); observations
// above the last bound land in an implicit overflow bucket that only the
// +Inf cumulative count sees. Power-of-two bounds make the bucket index one
// bits.Len64 — no search, no float math — which is what keeps Observe on the
// data plane.
type BucketLayout struct {
	// MinExp is the exponent of the first upper bound (bucket 0 holds
	// observations <= 1<<MinExp).
	MinExp int
	// Buckets is the number of finite buckets.
	Buckets int
}

// Standard layouts. All latency histograms record nanoseconds, all size
// histograms bytes, so series of the same layout aggregate cleanly.
var (
	// LatencyNs spans 1 µs .. ~4.3 s (2^10 .. 2^32 ns).
	LatencyNs = BucketLayout{MinExp: 10, Buckets: 23}
	// SizeBytes spans 32 B .. 64 MiB (2^5 .. 2^26), matching the buffer
	// pool's size classes.
	SizeBytes = BucketLayout{MinExp: 5, Buckets: 22}
	// SmallCount spans 1 .. 4096, for queue depths, batch sizes and
	// ready-set sizes.
	SmallCount = BucketLayout{MinExp: 0, Buckets: 13}
)

// maxBuckets bounds a layout so snapshot buffers stay small.
const maxBuckets = 64

func (l BucketLayout) validate() error {
	if l.Buckets <= 0 || l.Buckets > maxBuckets || l.MinExp < 0 || l.MinExp+l.Buckets > 63 {
		return fmt.Errorf("metrics: bad bucket layout %+v", l)
	}
	return nil
}

// upperBound returns bucket i's inclusive upper bound.
func (l BucketLayout) upperBound(i int) int64 { return 1 << (l.MinExp + i) }

// Histogram is a fixed-bucket power-of-two histogram. Observe is lock-free
// and allocation-free: one bits.Len64 plus three atomic adds. Nil receivers
// are no-ops.
type Histogram struct {
	layout BucketLayout
	count  atomic.Uint64
	sum    atomic.Int64
	counts []atomic.Uint64 // len = layout.Buckets+1; last is overflow
}

// Observe records v (negative values count into bucket 0, so a clock going
// backwards cannot corrupt the distribution).
func (h *Histogram) Observe(v int64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }

func (h *Histogram) bucketIndex(v int64) int {
	if v <= 1<<h.layout.MinExp {
		return 0
	}
	// ceil(log2(v)) for v >= 2: index of the smallest power-of-two bound >= v.
	idx := bits.Len64(uint64(v-1)) - h.layout.MinExp
	if idx > h.layout.Buckets {
		idx = h.layout.Buckets // overflow bucket
	}
	return idx
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// series is one (label set, instrument) pair within a family.
type series struct {
	labels   []Label
	labelKey string // canonical rendered label set, "" when unlabeled

	counter *Counter
	gauge   *Gauge
	fgauge  *FloatGauge
	hist    *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name, help string
	kind       Kind
	layout     BucketLayout // histograms only
	byKey      map[string]*series
	order      []*series // registration order
}

// Registry is a set of metric families. The zero value is not usable; call
// NewRegistry. Default is the process-wide registry every AIACC layer
// reports into.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry. The package-level constructors
// (NewCounter, NewGauge, NewFloatGauge, NewHistogram) register here.
var Default = NewRegistry()

// labelKey renders labels in sorted-key order as `k1="v1",k2="v2"`. It is the
// series identity within a family.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the series for (name, labels), creating family and series as
// needed. A name reused with a different kind or layout panics: both are
// programmer errors that would silently corrupt exposition.
func (r *Registry) lookup(name, help string, kind Kind, layout BucketLayout, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, layout: layout, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	if kind == KindHistogram && f.layout != layout {
		panic(fmt.Sprintf("metrics: %s registered with layout %+v, requested %+v", name, f.layout, layout))
	}
	key := labelKey(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), labelKey: key}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindFloatGauge:
			s.fgauge = &FloatGauge{}
		case KindHistogram:
			s.hist = &Histogram{layout: layout, counts: make([]atomic.Uint64, layout.Buckets+1)}
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter returns the counter registered under (name, labels), creating it on
// first use. help is recorded on first registration of the family.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, KindCounter, BucketLayout{}, labels).counter
}

// Gauge returns the int64 gauge registered under (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, KindGauge, BucketLayout{}, labels).gauge
}

// FloatGauge returns the float64 gauge registered under (name, labels).
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	return r.lookup(name, help, KindFloatGauge, BucketLayout{}, labels).fgauge
}

// Histogram returns the histogram registered under (name, labels) with the
// given bucket layout. Reusing a name with a different layout panics.
func (r *Registry) Histogram(name, help string, layout BucketLayout, labels ...Label) *Histogram {
	if err := layout.validate(); err != nil {
		panic(err)
	}
	return r.lookup(name, help, KindHistogram, layout, labels).hist
}

// NewCounter registers on the Default registry; see Registry.Counter.
func NewCounter(name, help string, labels ...Label) *Counter {
	return Default.Counter(name, help, labels...)
}

// NewGauge registers on the Default registry; see Registry.Gauge.
func NewGauge(name, help string, labels ...Label) *Gauge {
	return Default.Gauge(name, help, labels...)
}

// NewFloatGauge registers on the Default registry; see Registry.FloatGauge.
func NewFloatGauge(name, help string, labels ...Label) *FloatGauge {
	return Default.FloatGauge(name, help, labels...)
}

// NewHistogram registers on the Default registry; see Registry.Histogram.
func NewHistogram(name, help string, layout BucketLayout, labels ...Label) *Histogram {
	return Default.Histogram(name, help, layout, labels...)
}

// --- Snapshots ---

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	// UpperBound is the inclusive upper bound (a power of two).
	UpperBound int64 `json:"le"`
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations (the +Inf bucket).
	Count uint64 `json:"count"`
	// Sum is the sum of observed values.
	Sum int64 `json:"sum"`
	// Buckets holds the finite cumulative buckets in ascending bound order.
	Buckets []Bucket `json:"buckets"`
}

// Mean returns the mean observed value, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// SeriesSnapshot is one series' point-in-time value.
type SeriesSnapshot struct {
	// Labels in registration order.
	Labels []Label `json:"labels,omitempty"`
	// Value holds counter and gauge readings (counters as exact integers
	// cast to float64; our counters count bytes/frames/rounds and stay well
	// under 2^53).
	Value float64 `json:"value"`
	// Histogram is set for histogram series only.
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// LabelString renders the snapshot's labels in canonical (sorted-key) form,
// e.g. `peer="1",stream="0"`. Empty for unlabeled series.
func (s SeriesSnapshot) LabelString() string { return labelKey(s.Labels) }

// FamilySnapshot is one metric family's point-in-time state.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   Kind             `json:"-"`
	KindS  string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a consistent-enough view of a registry: each series is read
// atomically, families are sorted by name, series keep registration order.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Family returns the named family, or nil.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Snapshot captures every family in the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	orders := make(map[*family][]*series, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
		// Copy the series list under the lock; values are read atomically
		// after it is released.
		orders[f] = append([]*series(nil), f.order...)
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, KindS: f.kind.String()}
		for _, s := range orders[f] {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = float64(s.gauge.Value())
			case KindFloatGauge:
				ss.Value = s.fgauge.Value()
			case KindHistogram:
				ss.Histogram = snapshotHistogram(s.hist)
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

func snapshotHistogram(h *Histogram) *HistogramSnapshot {
	hs := &HistogramSnapshot{
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, h.layout.Buckets),
	}
	var cum uint64
	for i := 0; i < h.layout.Buckets; i++ {
		cum += h.counts[i].Load()
		hs.Buckets[i] = Bucket{UpperBound: h.layout.upperBound(i), CumulativeCount: cum}
	}
	hs.Count = cum + h.counts[h.layout.Buckets].Load()
	return hs
}

// SnapshotDefault captures the Default registry.
func SnapshotDefault() Snapshot { return Default.Snapshot() }
