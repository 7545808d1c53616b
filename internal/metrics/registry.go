// Package metrics is the campaign telemetry layer: a lock-cheap registry of
// counters, gauges and fixed-bucket histograms, a trace.Sink that keeps the
// campaign's live trace.Fold and copies it into the registry at scrape time
// (so engine/fleet/link code needs no metric call sites), and an embedded
// HTTP server exposing the registry in
// Prometheus text format at /metrics, a JSON status document at /status, and
// net/http/pprof at /debug/pprof/ for host-side profiling.
//
// The registry is the serving substrate for the fuzzing-as-a-service daemon:
// a scraper can watch execs/s, restore rates, per-tier throughput and the
// confirmation-queue depth of a live campaign, while the deterministic
// journal stays the offline record. Counters are float64 values updated by
// atomic compare-and-swap on their bit pattern — no mutex on the hot path —
// and exposition sorts families and label values, so scrapes are
// deterministic for a deterministic campaign.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// value is a float64 cell updated lock-free via CAS on its bit pattern; it
// backs both counters and gauges.
type value struct {
	bits atomic.Uint64
}

func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (v *value) set(f float64) { v.bits.Store(math.Float64bits(f)) }
func (v *value) get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing metric. Add with a negative delta is
// a programming error; Set exists for scrape-time collectors that copy a
// counter from the state they fold (see Registry.OnScrape).
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds d (d must be >= 0).
func (c *Counter) Add(d float64) { c.v.add(d) }

// Set replaces the counter's value with f.
func (c *Counter) Set(f float64) { c.v.set(f) }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.v.get() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v value }

// Set replaces the gauge value.
func (g *Gauge) Set(f float64) { g.v.set(f) }

// Add adds d (may be negative).
func (g *Gauge) Add(d float64) { g.v.add(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.get() }

// SetMax raises the gauge to f if f is larger (lock-free high-water mark).
func (g *Gauge) SetMax(f float64) {
	for {
		old := g.v.bits.Load()
		if math.Float64frombits(old) >= f {
			return
		}
		if g.v.bits.CompareAndSwap(old, math.Float64bits(f)) {
			return
		}
	}
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper bounds
// in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    value
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(f float64) {
	i := sort.SearchFloat64s(h.bounds, f) // first bound >= f
	h.counts[i].Add(1)
	h.sum.add(f)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.get() }

// set replaces the histogram's state with per-bucket counts (one per bound,
// then +Inf) and their sum.
func (h *Histogram) set(counts []int, sum float64) {
	n := uint64(0)
	for i, c := range counts {
		h.counts[i].Store(uint64(c))
		n += uint64(c)
	}
	h.count.Store(n)
	h.sum.set(sum)
}

// CounterVec is a family of counters split by one label.
type CounterVec struct {
	mu     sync.Mutex
	series map[string]*Counter
}

// With returns (creating on first use) the counter for the label value.
func (cv *CounterVec) With(label string) *Counter {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c := cv.series[label]
	if c == nil {
		c = &Counter{}
		cv.series[label] = c
	}
	return c
}

// GaugeVec is a family of gauges split by one label.
type GaugeVec struct {
	mu     sync.Mutex
	series map[string]*Gauge
}

// With returns (creating on first use) the gauge for the label value.
func (gv *GaugeVec) With(label string) *Gauge {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	g := gv.series[label]
	if g == nil {
		g = &Gauge{}
		gv.series[label] = g
	}
	return g
}

// family is one registered metric name with its help text, type and series.
type family struct {
	name  string
	help  string
	typ   string // "counter", "gauge", "histogram"
	label string // label key for vectors, "" for scalars

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cvec    *CounterVec
	gvec    *GaugeVec
}

// Registry holds the registered metric families. Registration takes a mutex;
// updates through the returned handles are lock-free (vectors take the
// vector's own mutex only on a label's first use).
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	onScrape []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic("metrics: duplicate registration of " + f.name)
	}
	r.fams[f.name] = f
}

// OnScrape registers fn to run before every exposition, so families whose
// values live in another structure (the campaign sink's fold) are copied in
// at scrape time rather than updated per event.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// NewCounter registers a scalar counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// NewGauge registers a scalar gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// NewHistogram registers a fixed-bucket histogram. Bounds must be ascending.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending for " + name)
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// NewCounterVec registers a counter family split by one label key.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	cv := &CounterVec{series: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, typ: "counter", label: label, cvec: cv})
	return cv
}

// NewGaugeVec registers a gauge family split by one label key.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	gv := &GaugeVec{series: make(map[string]*Gauge)}
	r.register(&family{name: name, help: help, typ: "gauge", label: label, gvec: gv})
	return gv
}

// WriteText renders the registry in Prometheus text exposition format.
// Families are sorted by name and series by label value, so the output is
// deterministic — the golden-file test depends on that.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := r.onScrape
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.counter != nil:
			writeSample(&b, f.name, "", "", f.counter.Value())
		case f.gauge != nil:
			writeSample(&b, f.name, "", "", f.gauge.Value())
		case f.hist != nil:
			writeHistogram(&b, f.name, f.hist)
		case f.cvec != nil:
			f.cvec.mu.Lock()
			for _, lv := range sortedKeysC(f.cvec.series) {
				writeSample(&b, f.name, f.label, lv, f.cvec.series[lv].Value())
			}
			f.cvec.mu.Unlock()
		case f.gvec != nil:
			f.gvec.mu.Lock()
			for _, lv := range sortedKeysG(f.gvec.series) {
				writeSample(&b, f.name, f.label, lv, f.gvec.series[lv].Value())
			}
			f.gvec.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, label, lv string, v float64) {
	b.WriteString(name)
	if label != "" {
		fmt.Fprintf(b, "{%s=%q}", label, lv)
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeysC(m map[string]*Counter) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysG(m map[string]*Gauge) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
