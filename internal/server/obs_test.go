package server_test

// The observability-plane integration test: drive a durable server over a
// real socket, then check that every layer's instruments actually moved —
// op latency histograms, WAL fsync/commit histograms, reclaim gauges — via
// the Prometheus exposition endpoint (round-tripped through obs.ParseProm),
// the STATS text view, and the slow-op TRACE command.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pragmaprim/internal/client"
	"pragmaprim/internal/container"
	"pragmaprim/internal/multiset"
	"pragmaprim/internal/obs"
	"pragmaprim/internal/server"
	"pragmaprim/internal/snapshot"
	"pragmaprim/internal/wal"
)

// startObs starts a durable in-memory-FS server with a 1ns slow threshold,
// so every flush interval lands in the trace ring.
func startObs(tb testing.TB) (*server.Server, *wal.Log) {
	tb.Helper()
	c := container.Multiset(multiset.New[int]())
	l, _, err := snapshot.Recover(c, "wal", wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		tb.Fatalf("recover: %v", err)
	}
	s, err := server.Start(c, server.Config{
		Durable:         &server.Durability{Log: l, Barrier: snapshot.NewBarrier(1)},
		SlowOpThreshold: time.Nanosecond,
	})
	if err != nil {
		l.Close()
		tb.Fatalf("start: %v", err)
	}
	return s, l
}

func TestServerObsPlane(t *testing.T) {
	s, l := startObs(t)
	defer l.Close()
	defer shutdownNow(t, s)

	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	const depth, rounds = 64, 8
	for r := 0; r < rounds; r++ {
		pipelinedRound(t, cl, depth)
	}
	// The replies are in hand, and observeFlush runs before the reply flush
	// hits the socket — so every sample below is already recorded.
	wantOps := int64(rounds * depth / 2)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Prometheus exposition: fetch, parse with the in-repo parser, and
	// check the tentpole families from every layer.
	fams := scrapeProm(t, srv.URL+"/metrics?format=prom")
	for _, op := range []string{"GET", "SET"} {
		f := fams["kv_op_latency_ns"]
		if f == nil {
			t.Fatal("kv_op_latency_ns family missing")
		}
		h, err := f.Hist(map[string]string{"op": op})
		if err != nil {
			t.Fatalf("kv_op_latency_ns{op=%s}: %v", op, err)
		}
		if got := h.Count(); got != wantOps {
			t.Errorf("kv_op_latency_ns{op=%s} count = %d, want %d", op, got, wantOps)
		}
		if h.Quantile(50) <= 0 {
			t.Errorf("kv_op_latency_ns{op=%s} p50 = %d, want > 0", op, h.Quantile(50))
		}
	}
	if f := fams["kv_wal_fsync_ns"]; f == nil {
		t.Error("kv_wal_fsync_ns family missing")
	} else if h, err := f.Hist(nil); err != nil {
		t.Errorf("kv_wal_fsync_ns: %v", err)
	} else if h.Count() == 0 {
		t.Error("kv_wal_fsync_ns recorded no fsyncs under a durable load")
	}
	if f := fams["kv_wal_commit_records"]; f == nil {
		t.Error("kv_wal_commit_records family missing")
	} else if h, err := f.Hist(nil); err != nil {
		t.Errorf("kv_wal_commit_records: %v", err)
	} else if h.Count() == 0 {
		t.Error("kv_wal_commit_records recorded no commit groups")
	}
	if f := fams["kv_reclaim_epoch"]; f == nil {
		t.Error("kv_reclaim_epoch family missing")
	}
	if f := fams["kv_server_ops_total"]; f == nil {
		t.Error("kv_server_ops_total family missing")
	} else if v, ok := f.Value(map[string]string{"op": "SET"}); !ok || int64(v) != wantOps {
		t.Errorf("kv_server_ops_total{op=SET} = %v (ok=%v), want %d", v, ok, wantOps)
	}

	// The STATS text view carries the same plane: the reclaim gauge line and
	// the folded histogram summaries.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, want := range []string{"kv_reclaim_epoch ", "kv_op_latency_ns{op=\"SET\"}", "kv_wal_fsync_ns"} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS dump missing %q:\n%s", want, stats)
		}
	}

	// With a 1ns threshold every flush interval is slow, so TRACE must hold
	// recent keyed ops.
	trace, err := cl.Trace()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if !strings.Contains(trace, "trace: slow_ops=") {
		t.Fatalf("TRACE missing header:\n%s", trace)
	}
	if !strings.Contains(trace, "op=SET") && !strings.Contains(trace, "op=GET") {
		t.Errorf("TRACE holds no keyed ops:\n%s", trace)
	}
	if strings.Contains(trace, "slow_ops=0") {
		t.Errorf("TRACE captured nothing at a 1ns threshold:\n%s", trace)
	}

	// The /trace endpoint serves the same bytes.
	if body := httpGet(t, srv.URL+"/trace"); !strings.Contains(body, "trace: slow_ops=") {
		t.Errorf("/trace missing header:\n%s", body)
	}
	// And the plain /metrics endpoint serves the same text view as STATS.
	if body := httpGet(t, srv.URL+"/metrics"); !strings.Contains(body, "kv_server_conns_active ") {
		t.Errorf("/metrics missing server line:\n%s", body)
	}
}

func httpGet(tb testing.TB, url string) string {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("get %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

func scrapeProm(tb testing.TB, url string) map[string]*obs.Family {
	tb.Helper()
	body := httpGet(tb, url)
	fams, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		tb.Fatalf("ParseProm: %v\n%s", err, body)
	}
	return fams
}
