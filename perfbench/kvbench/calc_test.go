package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"pragmaprim/internal/proto"
	"pragmaprim/internal/stats"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {999999, 99.99},
		{1000000, 99.999}, {1 << 40, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestConservationCatchesOffByOne(t *testing.T) {
	// Book a reply stream the way the load loops do: only SET(true) and
	// DEL(true) change the size; GETs, false replies and errors do not.
	var st connStats
	true_, false_ := proto.Reply{Status: proto.StatusTrue}, proto.Reply{Status: proto.StatusFalse}
	for _, r := range []struct {
		op  proto.Op
		rep proto.Reply
	}{
		{proto.OpSet, true_}, {proto.OpSet, true_}, {proto.OpSet, false_},
		{proto.OpDel, true_}, {proto.OpDel, false_}, {proto.OpGet, true_},
		{proto.OpSet, proto.Reply{Status: proto.StatusErr}},
	} {
		st.attempted++
		st.account(r.op, r.rep)
	}
	tl := tally{Prefill: 512}
	tl.add(st.tally)
	if st.failed() != 1 || st.errored != 1 {
		t.Errorf("failed %d errored %d, want 1 and 1", st.failed(), st.errored)
	}
	if err := checkConservation(tl, 513, "size"); err != nil {
		t.Fatalf("exact size rejected: %v", err)
	}
	for _, size := range []int64{512, 514} {
		err := checkConservation(tl, size, "size")
		if err == nil {
			t.Fatalf("size %d (off by one) accepted", size)
		}
		if !strings.Contains(err.Error(), "want") {
			t.Errorf("message does not explain the mismatch: %v", err)
		}
	}
}

// Canned expositions in the form cmd/server writes: a labelled counter, an
// unlabelled counter and a labelled histogram, before and after a window.
const promBefore = `# TYPE kv_server_ops_total counter
kv_server_ops_total{op="GET"} 100
kv_server_ops_total{op="SET"} 20
# TYPE kv_server_batches_total counter
kv_server_batches_total 7
# TYPE kv_op_latency_ns histogram
kv_op_latency_ns_bucket{op="GET",le="10"} 5
kv_op_latency_ns_bucket{op="GET",le="+Inf"} 5
kv_op_latency_ns_sum{op="GET"} 40
kv_op_latency_ns_count{op="GET"} 5
kv_op_latency_ns_bucket{op="SET",le="+Inf"} 0
kv_op_latency_ns_sum{op="SET"} 0
kv_op_latency_ns_count{op="SET"} 0
`

const promAfter = `# TYPE kv_server_ops_total counter
kv_server_ops_total{op="GET"} 190
kv_server_ops_total{op="SET"} 30
# TYPE kv_server_batches_total counter
kv_server_batches_total 12
# TYPE kv_op_latency_ns histogram
kv_op_latency_ns_bucket{op="GET",le="10"} 7
kv_op_latency_ns_bucket{op="GET",le="4095"} 17
kv_op_latency_ns_bucket{op="GET",le="+Inf"} 17
kv_op_latency_ns_sum{op="GET"} 30000
kv_op_latency_ns_count{op="GET"} 17
kv_op_latency_ns_bucket{op="SET",le="4095"} 4
kv_op_latency_ns_bucket{op="SET",le="+Inf"} 4
kv_op_latency_ns_sum{op="SET"} 12000
kv_op_latency_ns_count{op="SET"} 4
`

func TestScrapeDeltas(t *testing.T) {
	before, err := parseSnap(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseSnap(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := counterDelta(before, after, "kv_server_ops_total"); got != 100 {
		t.Errorf("ops delta over labels = %v, want 100", got)
	}
	if got := counterDelta(before, after, "kv_server_batches_total"); got != 5 {
		t.Errorf("batches delta = %v, want 5", got)
	}
	if got := counterDelta(before, after, "kv_wal_fsyncs_total"); got != 0 {
		t.Errorf("absent family delta = %v, want 0", got)
	}
	h, err := histDelta(before, after, "kv_op_latency_ns",
		map[string]string{"op": "GET"}, map[string]string{"op": "SET"})
	if err != nil {
		t.Fatal(err)
	}
	// GET gained 2 observations at <=10 and 10 at <=4095; SET gained 4 at
	// <=4095. The 5 GETs recorded before the window are gone.
	if h.Count() != 16 {
		t.Fatalf("delta count = %d, want 16", h.Count())
	}
	if got := h.BucketCount(stats.BucketIndex(10)); got != 2 {
		t.Errorf("bucket of 10 holds %d, want 2", got)
	}
	if got := h.BucketCount(stats.BucketIndex(4095)); got != 14 {
		t.Errorf("bucket of 4095 holds %d, want 14", got)
	}
	lo := float64(stats.BucketUpper(stats.BucketIndex(4095)-1) + 1)
	if p50 := quantile(h, 50); p50 < lo || p50 > 4095 {
		t.Errorf("p50 = %v, want inside the top bucket [%v, 4095]", p50, lo)
	}
	if _, err := histDelta(after, before, "kv_op_latency_ns", map[string]string{"op": "GET"}); err == nil {
		t.Error("a histogram that shrank between scrapes was accepted")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var h stats.Histogram
	for v := int64(0); v < 1000; v++ {
		h.Record(v)
	}
	for _, p := range []float64{10, 50, 90, 99} {
		want := p / 100 * 1000
		if got := quantile(&h, p); math.Abs(got-want) > want*0.07 {
			t.Errorf("quantile(%v) = %v, want about %v", p, got, want)
		}
	}
	if got := quantile(&stats.Histogram{}, 50); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestProcCPUSelf(t *testing.T) {
	pid := os.Getpid()
	sched, serr := schedCPU(pid)
	stat, err := statCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Skipf("no per-thread sched run time here: %v", serr)
	}
	// Both count this process's CPU; stat is truncated to 10ms ticks.
	if sched+20*time.Millisecond < stat {
		t.Errorf("sched run time %v well below stat time %v", sched, stat)
	}
}
