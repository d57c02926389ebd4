// Package obs is the observability plane: a lock-free metrics registry that
// every layer of the serving stack registers into, plus the slow-op trace
// ring. It exists so the properties the paper's fast paths promise —
// batched amortization, epoch advance progress, group-commit behavior — are
// visible from a live server, not only from benchmark harnesses.
//
// The registry holds three instrument kinds:
//
//   - Counter: a padded atomic the owner adds to. CounterFunc and GaugeFunc
//     are the pull-based variants — a closure sampled at scrape time, so
//     layers that already keep their own state (wal.Metrics, the template
//     engine's counters, reclaim.Domain) expose it with zero new hot-path
//     cost.
//   - Histogram: striped atomic bucket arrays sharing stats.Histogram's
//     log-linear geometry. Recording is a few atomic adds on the caller's
//     own stripe (0 allocs, no locks, no false sharing between stripes);
//     scraping folds every stripe into a plain stats.Histogram.
//
// The record/scrape split is the same discipline as the server's per-batch
// counter fold: writers touch only their stripe, readers pay the whole cost
// of aggregation, and the two never exclude each other — a scrape underway
// concurrently with recording sees each bucket's count at some instant
// (atomic loads), which is exactly as consistent as a statistical snapshot
// needs to be.
//
// The registry is the only store: its two views, WriteProm (the Prometheus
// exposition) and WriteText (one line per sample, for STATS and the plain
// /metrics), render every instrument generically, and Sum reads one
// family's total for callers that want a number rather than a dump.
//
// Registration (NewRegistry, Counter, Histogram, ...) takes a mutex and
// allocates; it happens at server start. The record path never does either.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pragmaprim/internal/stats"
)

// Label is one metric dimension, rendered as key="value" in both the text
// and Prometheus views.
type Label struct {
	Key, Value string
}

// kind discriminates the registered instrument families.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered metric: exactly one of counter, fn, or hist
// is set.
type instrument struct {
	labels  string // pre-rendered inner label string: `op="GET"`, or ""
	counter *Counter
	fn      func() int64
	hist    *Histogram
}

// family groups the instruments sharing one metric name; a family has one
// kind and one TYPE line in the Prometheus view.
type family struct {
	name  string
	kind  kind
	items []instrument
}

// Registry is a set of named instruments. Registration is mutex-guarded and
// allocates; the record paths of the instruments it hands out are lock- and
// allocation-free. A nil Registry is not usable — use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name string, k kind, it instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, k))
	}
	f.items = append(f.items, it)
}

// Counter registers and returns an owned counter the caller adds to.
// By Prometheus convention the name should end in _total.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, kindCounter, instrument{labels: renderLabels(labels), counter: c})
	return c
}

// CounterFunc registers a pull-based counter: fn is sampled at scrape time
// and must be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	r.add(name, kindCounter, instrument{labels: renderLabels(labels), fn: fn})
}

// GaugeFunc registers a pull-based gauge: fn is sampled at scrape time and
// must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	r.add(name, kindGauge, instrument{labels: renderLabels(labels), fn: fn})
}

// Histogram registers a striped histogram with the given stripe count
// (clamped to at least 1) and returns it. Callers spread their Recorder
// picks over the stripes — one per connection, worker, or P.
func (r *Registry) Histogram(name string, stripes int, labels ...Label) *Histogram {
	if stripes < 1 {
		stripes = 1
	}
	h := &Histogram{stripes: make([]Recorder, stripes)}
	r.add(name, kindHistogram, instrument{labels: renderLabels(labels), hist: h})
	return h
}

// Counter is an owned monotonic counter, padded onto its own cache line so
// counters registered together do not false-share.
type Counter struct {
	n atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Histogram is a concurrent histogram: a fixed set of stripes, each an
// atomic bucket array with stats.Histogram's log-linear geometry. Writers
// record into one stripe (Recorder); readers fold all stripes into a plain
// stats.Histogram. There is no lock anywhere: a fold concurrent with
// recording observes each counter at some instant, which can split one
// logical observation across count and sum but never corrupts either.
type Histogram struct {
	stripes []Recorder
}

// Recorder is one stripe of a Histogram: the write half of the instrument.
// All methods are safe for concurrent use, lock-free, and allocation-free.
// The trailing pad keeps the hot tail counters (n, sum, max) of one stripe
// off the first bucket line of the next.
type Recorder struct {
	counts [stats.Buckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	_      [40]byte
}

// Record adds one observation. Negative values clamp to zero.
func (rec *Recorder) Record(v int64) { rec.RecordN(v, 1) }

// RecordN adds n observations of value v in one shot — the batched form the
// server uses when every op of a flush interval shares one measured
// duration. n <= 0 is a no-op.
func (rec *Recorder) RecordN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	rec.counts[stats.BucketIndex(v)].Add(n)
	rec.n.Add(n)
	rec.sum.Add(v * n)
	for {
		m := rec.max.Load()
		if v <= m || rec.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Recorder returns stripe i mod the stripe count; spreading i over
// connections or workers keeps concurrent writers on distinct cache lines.
func (h *Histogram) Recorder(i int) *Recorder {
	return &h.stripes[i%len(h.stripes)]
}

// Fold aggregates every stripe into dst (which is Reset first) and returns
// the summed value total. Safe concurrently with recording.
func (h *Histogram) Fold(dst *stats.Histogram) (sum int64) {
	dst.Reset()
	for s := range h.stripes {
		rec := &h.stripes[s]
		for b := 0; b < stats.Buckets; b++ {
			if c := rec.counts[b].Load(); c != 0 {
				dst.AddBucket(b, c)
			}
		}
		dst.ObserveMax(rec.max.Load())
		sum += rec.sum.Load()
	}
	return sum
}

// Count returns the total observations across stripes.
func (h *Histogram) Count() int64 {
	var n int64
	for s := range h.stripes {
		n += h.stripes[s].n.Load()
	}
	return n
}

// Sum returns the total of the recorded values across stripes.
func (h *Histogram) Sum() int64 {
	var sum int64
	for s := range h.stripes {
		sum += h.stripes[s].sum.Load()
	}
	return sum
}

// renderLabels pre-renders the inner label string (`k="v",k2="v2"`).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sampleName renders `name` or `name{labels}` with an optional extra label
// appended (the histogram writer's `le`).
func sampleName(name, labels, extra string) string {
	if labels == "" && extra == "" {
		return name
	}
	switch {
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// snapshot copies the family list under the lock, so rendering — which
// samples caller-supplied pull functions — runs without holding it.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// value samples a counter or gauge instrument.
func (it *instrument) value() int64 {
	if it.counter != nil {
		return it.counter.Load()
	}
	return it.fn()
}

// WriteProm renders the registry in the Prometheus text exposition format:
// one TYPE line per family, counters and gauges as single samples,
// histograms as cumulative le-labeled buckets (only non-empty buckets are
// emitted — the cumulative values are unaffected) plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) {
	var scratch stats.Histogram
	for _, f := range r.snapshot() {
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, it := range f.items {
			switch {
			case it.hist == nil:
				fmt.Fprintf(w, "%s %d\n", sampleName(f.name, it.labels, ""), it.value())
			default:
				sum := it.hist.Fold(&scratch)
				var cum int64
				for b := 0; b < stats.Buckets; b++ {
					c := scratch.BucketCount(b)
					if c == 0 {
						continue
					}
					cum += c
					fmt.Fprintf(w, "%s %d\n",
						sampleName(f.name+"_bucket", it.labels, fmt.Sprintf(`le="%d"`, stats.BucketUpper(b))), cum)
				}
				fmt.Fprintf(w, "%s %d\n", sampleName(f.name+"_bucket", it.labels, `le="+Inf"`), cum)
				fmt.Fprintf(w, "%s %d\n", sampleName(f.name+"_sum", it.labels, ""), sum)
				fmt.Fprintf(w, "%s %d\n", sampleName(f.name+"_count", it.labels, ""), cum)
			}
		}
	}
}

// WriteText renders the registry for people, one line per sample in
// registration order: a counter or gauge prints as its Prometheus sample
// line (`name{labels} value`), a non-empty histogram as
// `name{labels} count=N p50=… p90=… p99=… max=…`, with durations for
// families ending in _ns. Empty histograms are skipped. Ratios are not
// printed; DESIGN.md says how to derive them from the counters.
func (r *Registry) WriteText(w io.Writer) {
	var scratch stats.Histogram
	for _, f := range r.snapshot() {
		ns := strings.HasSuffix(f.name, "_ns")
		val := func(v int64) string {
			if ns {
				return time.Duration(v).Round(time.Microsecond / 10).String()
			}
			return strconv.FormatInt(v, 10)
		}
		for _, it := range f.items {
			name := sampleName(f.name, it.labels, "")
			if it.hist == nil {
				fmt.Fprintf(w, "%s %d\n", name, it.value())
				continue
			}
			if it.hist.Fold(&scratch); scratch.Count() == 0 {
				continue
			}
			fmt.Fprintf(w, "%s count=%d p50=%s p90=%s p99=%s max=%s\n",
				name, scratch.Count(), val(scratch.Quantile(50)), val(scratch.Quantile(90)),
				val(scratch.Quantile(99)), val(scratch.Quantile(100)))
		}
	}
}

// Sum returns a counter or gauge family's value summed over its label
// sets: 0 when no such family is registered, or when it is a histogram.
func (r *Registry) Sum(name string) (total int64) {
	r.mu.Lock()
	f := r.byName[name]
	var items []instrument
	if f != nil && f.kind != kindHistogram {
		items = f.items
	}
	r.mu.Unlock()
	for i := range items {
		total += items[i].value()
	}
	return total
}
