package obs

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"testing"

	"pragmaprim/internal/stats"
)

// TestObsRecordAllocFree is the acceptance pin for the record path: with
// the registry fully populated, recording into counters, histogram stripes
// and the trace ring allocates nothing. This is what lets the plane stay on
// by default in the serving hot path.
func TestObsRecordAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total")
	h := r.Histogram("test_latency_ns", 4, Label{"op", "GET"})
	rec := h.Recorder(1)
	tr := NewTraceRing(64)

	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		rec.Record(1234)
		rec.RecordN(1<<20, 16)
		tr.Record(TraceEntry{When: 1, Op: 2, Key: 3, Dur: 4, Retries: 5, CommitWait: 6})
	})
	if allocs != 0 {
		t.Fatalf("record path allocated %.1f times per run, want 0", allocs)
	}
}

// TestRegistryConcurrentRecordScrape hammers every instrument kind from
// writer goroutines while the main goroutine folds and renders the whole
// registry — the -race lane proves record and scrape need no exclusion,
// and the final totals prove no update was lost.
func TestRegistryConcurrentRecordScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total")
	h := r.Histogram("hammer_ns", 4)
	tr := NewTraceRing(32)
	var gauge int64 = 7
	r.GaugeFunc("hammer_gauge", func() int64 { return gauge })

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := h.Recorder(w)
			<-start
			for i := 0; i < perWorker; i++ {
				c.Inc()
				rec.Record(int64(i))
				tr.Record(TraceEntry{When: int64(i), Op: int64(w)})
			}
		}(w)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var fold stats.Histogram
	var buf bytes.Buffer
	scrapes := 0
	for {
		select {
		case <-done:
			goto drained
		default:
		}
		buf.Reset()
		r.WriteProm(&buf)
		if _, err := ParseProm(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("scrape %d unparsable: %v", scrapes, err)
		}
		h.Fold(&fold)
		tr.Snapshot(nil)
		scrapes++
	}
drained:
	t.Logf("completed %d concurrent scrapes", scrapes)
	const total = workers * perWorker
	if got := c.Load(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	h.Fold(&fold)
	if got := fold.Count(); got != total {
		t.Errorf("folded count = %d, want %d", got, total)
	}
	if got := tr.Count(); got != total {
		t.Errorf("trace count = %d, want %d", got, total)
	}
}

// TestHistogramFoldMatchesDirect records a deterministic sample through
// striped recorders and checks the fold agrees with a plain stats.Histogram
// fed the same values.
func TestHistogramFoldMatchesDirect(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fold_ns", 3)
	var direct stats.Histogram
	for i := int64(0); i < 10000; i++ {
		v := (i * i) % (1 << 22)
		h.Recorder(int(i)).Record(v)
		direct.Record(v)
	}
	var fold stats.Histogram
	sum := h.Fold(&fold)
	if fold.Count() != direct.Count() || fold.Max() != direct.Max() {
		t.Fatalf("fold count/max %d/%d, direct %d/%d",
			fold.Count(), fold.Max(), direct.Count(), direct.Max())
	}
	var wantSum int64
	for i := int64(0); i < 10000; i++ {
		wantSum += (i * i) % (1 << 22)
	}
	if sum != wantSum {
		t.Fatalf("fold sum = %d, want %d", sum, wantSum)
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if fold.Quantile(p) != direct.Quantile(p) {
			t.Errorf("q%v: fold %d direct %d", p, fold.Quantile(p), direct.Quantile(p))
		}
	}
}

// TestWritePromParseRoundTrip renders a populated registry and feeds it to
// the in-repo parser: every declared family must come back with its type,
// values must match exactly, and the histogram reconstruction must
// reproduce the fold's quantiles (shared bucket geometry makes it exact).
func TestWritePromParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rt_ops_total", Label{"op", "SET"})
	c.Add(42)
	r.GaugeFunc("rt_depth", func() int64 { return -3 })
	r.CounterFunc("rt_pull_total", func() int64 { return 9 })
	h := r.Histogram("rt_latency_ns", 2, Label{"op", `quo"te`})
	for i := int64(1); i <= 1000; i++ {
		h.Recorder(int(i)).Record(i * 1000)
	}

	var buf bytes.Buffer
	r.WriteProm(&buf)
	fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	for name, wantType := range map[string]string{
		"rt_ops_total":  "counter",
		"rt_depth":      "gauge",
		"rt_pull_total": "counter",
		"rt_latency_ns": "histogram",
	} {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		if f.Type != wantType {
			t.Errorf("family %s type = %s, want %s", name, f.Type, wantType)
		}
	}
	if v, ok := fams["rt_ops_total"].Value(map[string]string{"op": "SET"}); !ok || v != 42 {
		t.Errorf("rt_ops_total = %v (found=%v), want 42", v, ok)
	}
	if v, ok := fams["rt_depth"].Value(nil); !ok || v != -3 {
		t.Errorf("rt_depth = %v (found=%v), want -3", v, ok)
	}

	got, err := fams["rt_latency_ns"].Hist(map[string]string{"op": `quo"te`})
	if err != nil {
		t.Fatalf("hist reconstruct: %v", err)
	}
	var fold stats.Histogram
	h.Fold(&fold)
	if got.Count() != fold.Count() {
		t.Fatalf("reconstructed count = %d, want %d", got.Count(), fold.Count())
	}
	for _, p := range []float64{50, 90, 99} {
		if got.Quantile(p) != fold.Quantile(p) {
			t.Errorf("q%v: reconstructed %d, fold %d", p, got.Quantile(p), fold.Quantile(p))
		}
	}
}

// TestParsePromRejectsMalformed pins the parser's error behavior: the
// scrape output is a contract, so a bad line is an error, not a skip.
func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		"x{op=\"GET\" 1\n",    // unterminated label set
		"x{op=GET} 1\n",       // unquoted value
		"x{=\"v\"} 1\n",       // empty key
		"x 12abc\n",           // bad value
		"x{op=\"a\\qb\"} 1\n", // unknown escape
		"# TYPE x counter\nx 1\n# TYPE x gauge\n", // redeclared
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm(%q) succeeded, want error", bad)
		}
	}
	// And the accepted grammar corners: escapes, +Inf, untyped samples.
	good := "# HELP x something\nx{k=\"a\\\\b\\nc\"} +Inf\nplain 5\n"
	fams, err := ParseProm(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseProm(good): %v", err)
	}
	if f := fams["plain"]; f == nil || f.Type != "untyped" || f.Samples[0].Value != 5 {
		t.Errorf("plain sample parsed wrong: %+v", fams["plain"])
	}
	if f := fams["x"]; f == nil || f.Samples[0].Labels["k"] != "a\\b\nc" {
		t.Errorf("escape parsed wrong: %+v", fams["x"])
	}
}

// TestTraceRingOverwrite pins the ring semantics: capacity rounds up to a
// power of two, the newest Cap entries survive a lap, and Snapshot returns
// them newest first.
func TestTraceRingOverwrite(t *testing.T) {
	tr := NewTraceRing(20) // rounds up to 32
	if tr.Cap() != 32 {
		t.Fatalf("cap = %d, want 32", tr.Cap())
	}
	const total = 100
	for i := int64(1); i <= total; i++ {
		tr.Record(TraceEntry{When: i, Key: i})
	}
	if tr.Count() != total {
		t.Fatalf("count = %d, want %d", tr.Count(), total)
	}
	got := tr.Snapshot(nil)
	if len(got) != 32 {
		t.Fatalf("snapshot len = %d, want 32", len(got))
	}
	for i, e := range got {
		wantSeq := uint64(total - i)
		if e.Seq != wantSeq || e.Key != int64(wantSeq) {
			t.Fatalf("entry %d: seq=%d key=%d, want seq=key=%d", i, e.Seq, e.Key, wantSeq)
		}
	}
	// Snapshot of a partially filled ring returns only what was recorded.
	tr2 := NewTraceRing(16)
	tr2.Record(TraceEntry{Key: 1})
	if got := tr2.Snapshot(nil); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("partial snapshot = %+v", got)
	}
}

// TestRegistryTextView checks the text view's histogram summary line: a
// populated histogram is shown, an empty one is not.
func TestRegistryTextView(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("txt_latency_ns", 1, Label{"op", "GET"})
	h.Recorder(0).RecordN(1500, 10)
	r.Histogram("txt_empty_ns", 1)
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, `txt_latency_ns{op="GET"}`) || !strings.Contains(out, "count=10") {
		t.Errorf("text view missing populated histogram:\n%s", out)
	}
	if strings.Contains(out, "txt_empty_ns") {
		t.Errorf("text view includes empty histogram:\n%s", out)
	}
}

// TestWriteTextMatchesProm pins that the two views render one store: every
// counter and gauge sample of the Prometheus exposition appears in the text
// view with the same value, and every non-empty histogram's text count
// equals its _count sample.
func TestWriteTextMatchesProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_ops_total", Label{"op", "GET"}).Add(5)
	r.Counter("m_ops_total", Label{"op", "SET"}).Add(7)
	r.Counter("m_flushes_total").Inc()
	r.CounterFunc("m_pull_total", func() int64 { return 11 })
	r.GaugeFunc("m_depth", func() int64 { return -2 }, Label{"shard", "0"})
	r.GaugeFunc("m_depth", func() int64 { return 3 }, Label{"shard", "1"})
	h := r.Histogram("m_batch_ops", 2)
	for i := int64(1); i <= 100; i++ {
		h.Recorder(int(i)).Record(i)
	}
	r.Histogram("m_latency_ns", 1, Label{"op", "GET"}).Recorder(0).RecordN(2500, 4)
	r.Histogram("m_empty_ns", 1)

	var prom, text bytes.Buffer
	r.WriteProm(&prom)
	r.WriteText(&text)
	fams, err := ParseProm(&prom)
	if err != nil {
		t.Fatalf("parse prom: %v", err)
	}
	// Index the text view by sample: counter and gauge lines parse as
	// Prometheus samples; a histogram line's count= field stands in for
	// its value.
	type key struct{ name, labels string }
	keyOf := func(s Sample) key {
		ls := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			ls = append(ls, k+"="+v)
		}
		sort.Strings(ls)
		return key{s.Name, strings.Join(ls, ",")}
	}
	textVals := make(map[key]float64)
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if i := strings.Index(line, " count="); i >= 0 {
			line = line[:i] + " " + strings.Fields(line[i+len(" count="):])[0]
		}
		s, err := parseSample(line)
		if err != nil {
			t.Fatalf("text line %q: %v", line, err)
		}
		textVals[keyOf(s)] = s.Value
	}
	checked := 0
	for _, f := range fams {
		for _, s := range f.Samples {
			k := keyOf(s)
			if f.Type == "histogram" {
				if s.Name != f.Name+"_count" || s.Value == 0 {
					continue
				}
				k.name = f.Name
			}
			if v, ok := textVals[k]; !ok || v != s.Value {
				t.Errorf("%s{%s}: prom %v, text %v (present=%v)", s.Name, k.labels, s.Value, v, ok)
			}
			checked++
		}
	}
	if want := 8; checked != want || len(textVals) != want {
		t.Errorf("checked %d prom samples against %d text lines, want %d of each:\n%s",
			checked, len(textVals), want, text.String())
	}
}

// TestRegistrySum pins Sum: a counter or gauge family summed over its label
// sets, and 0 for an unknown family or a histogram.
func TestRegistrySum(t *testing.T) {
	r := NewRegistry()
	r.Counter("s_ops_total", Label{"op", "GET"}).Add(5)
	r.Counter("s_ops_total", Label{"op", "SET"}).Add(7)
	r.GaugeFunc("s_size", func() int64 { return 4 }, Label{"shard", "0"})
	r.GaugeFunc("s_size", func() int64 { return -1 }, Label{"shard", "1"})
	r.Histogram("s_lat_ns", 1).Recorder(0).Record(9)
	for name, want := range map[string]int64{"s_ops_total": 12, "s_size": 3, "s_lat_ns": 0, "s_missing": 0} {
		if got := r.Sum(name); got != want {
			t.Errorf("Sum(%q) = %d, want %d", name, got, want)
		}
	}
}
