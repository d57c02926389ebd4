// Command kvbench is the repository's end-to-end benchmark. It launches
// the unmodified cmd/server as its own process, drives it over TCP from
// this process through internal/client with op streams from
// internal/workload, and reports what a user of the server sees: throughput,
// per-op latency, server CPU per op and memory, the share of ops that
// failed, and set-up time. A traced run (-trace 1) reports the
// per-layer numbers instead: client spans, server scrape deltas, and a
// ladder that replays the same op stream through each layer's public
// functions in this process.
//
// Every run checks conservation: the server's final size must equal the
// prefill plus acknowledged SET(true) minus acknowledged DEL(true). The
// durable workload also restarts the server on its WAL directory and checks
// the recovered size. A failed check prints no numbers and exits 1.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	kvbench -server BIN -workdir DIR -workload read-hot|multiset-churn|durable-write
//	        -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pragmaprim/internal/client"
	"pragmaprim/internal/workload"
)

// spec is one workload: the server it runs against and the load it gets.
type spec struct {
	name, why string
	structure string
	shards    int
	durable   bool // -wal-dir on a fresh directory, no snapshots
	// fsyncInterval is the durable server's group-commit window.
	fsyncInterval string
	open          bool    // open loop at rate; otherwise closed loop at depth
	depth         int     // closed: requests per batch per conn; open: in-flight window per conn
	rate          float64 // open loop: total ops/s
	burst         int     // open loop: ops each conn sends together at each due time
	mix           workload.Mix
	warmOps       int64 // closed-loop warm-up ops per conn at depth, part of set-up
}

var specs = []spec{
	{
		name:      "read-hot",
		why:       "hash map in memory, closed loop 2x128, 90/5/5: the structure op is small, so decode, batch apply, reply encode and write syscalls dominate",
		structure: "hashmap", shards: 1, depth: 128,
		mix:     workload.Mix{GetPct: 90, InsertPct: 5, DeletePct: 5},
		warmOps: 1 << 14,
	},
	{
		name:      "multiset-churn",
		why:       "the paper's LLX/SCX multiset over 4 shards, closed loop 2x16, 50/25/25: list traversal, SCX retries and epoch reclamation dominate",
		structure: "llx-multiset", shards: 4, depth: 16,
		mix:     workload.Mix{GetPct: 50, InsertPct: 25, DeletePct: 25},
		warmOps: 1 << 13,
	},
	{
		name:      "durable-write",
		why:       "hash map with a WAL, fsync per commit group over a 10ms window, open loop 8000 ops/s as 4-op bursts per conn every 1ms, 20/40/40: the only workload that touches the WAL",
		structure: "hashmap", shards: 1, durable: true, fsyncInterval: "10ms",
		open: true, depth: 256, rate: 8000, burst: 4,
		mix:     workload.Mix{GetPct: 20, InsertPct: 40, DeletePct: 40},
		warmOps: 1 << 11,
	},
}

const (
	conns     = 2 // load-generator connections
	loadProcs = 2 // GOMAXPROCS of this process
	setupRuns = 9 // set-ups per run; setup_s is their median
)

func (w spec) serverArgs(walDir string) []string {
	args := []string{"-structure", w.structure}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards))
	}
	if w.durable {
		args = append(args, "-wal-dir", walDir, "-fsync-interval", w.fsyncInterval)
	}
	return args
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// correctnessError marks a failed correctness check, as opposed to a run
// that could not be carried out.
type correctnessError struct{ error }

func main() { os.Exit(run()) }

func run() int {
	var (
		serverBin = flag.String("server", "", "path of the built cmd/server binary")
		workdir   = flag.String("workdir", ".bench_build", "directory for WAL directories and the span file")
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Int64("seed", 1, "workload seed; every op stream derives from it")
		seconds   = flag.Int("seconds", 10, "measured seconds")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	var w *spec
	for i := range specs {
		if specs[i].name == *name {
			w = &specs[i]
		}
	}
	if w == nil || *serverBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		fmt.Fprintf(os.Stderr, "kvbench: need -server, -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	// Host guard: never run more processors or connections than the host
	// has CPUs; such a configuration measures oversubscription.
	if n := runtime.NumCPU(); loadProcs > n || serverGOMAXPROCS > n || conns > n {
		fmt.Fprintf(os.Stderr, "kvbench: not run: needs %d CPUs for GOMAXPROCS=%d and %d connections, host has %d\n",
			max(loadProcs, serverGOMAXPROCS, conns), max(loadProcs, serverGOMAXPROCS), conns, n)
		return 3
	}
	runtime.GOMAXPROCS(loadProcs)

	dir, err := filepath.Abs(*workdir)
	if err == nil {
		dir = filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	r := &runner{
		w: *w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		bin: *serverBin, dir: dir, spanFile: filepath.Join(filepath.Dir(dir), "spans-"+w.name+".jsonl"),
		hc: &http.Client{Timeout: 10 * time.Second},
	}
	fmt.Printf("kvbench: workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("kvbench: why: %s\n", w.why)
	var res result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	var ce correctnessError
	switch {
	case errors.As(err, &ce):
		fmt.Fprintf(os.Stderr, "kvbench: FAILED correctness check: %v\n", err)
		printResult(false, res.attempted, res.failed, nil)
		return 1
	case err != nil:
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		return 2
	}
	rec := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "loadgen_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverGOMAXPROCS, "go_version": runtime.Version(),
		"conns": conns, "structure": w.structure, "shards": w.shards, "mix": w.mix.String(),
	}
	if w.durable {
		rec["wal_fs"] = fsName(dir)
		rec["flush_policy"] = "fsync per commit group after a " + w.fsyncInterval + " window (-fsync-interval), no snapshots"
	}
	for k, v := range res.record {
		rec[k] = v
	}
	if b, err := json.Marshal(rec); err == nil {
		fmt.Printf("kvbench: record %s\n", b)
	}
	for _, m := range res.metrics {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range res.unbounded {
		fmt.Printf("  %-28s %14.4f %s (unbounded)\n", m.name, m.value, m.unit)
	}
	printResult(true, res.attempted, res.failed, res.metrics)
	return 0
}

// printResult prints the final line the benchmark contract reads.
func printResult(ok bool, attempted, failed int64, ms []metric) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{ok, max(attempted, 1), failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Println(string(b))
}

// result is what a run reports.
type result struct {
	attempted, failed int64
	metrics           []metric // the benchmark's metrics for this mode
	unbounded         []metric // printed with the metrics, not in the result line
	record            map[string]any
}

// runner carries one run's settings and the state shared by its phases.
type runner struct {
	w        spec
	seed     int64
	dur      time.Duration
	bin      string
	dir      string
	spanFile string
	hc       *http.Client

	sp     *serverProc
	cls    []*client.Client
	walDir string
	tally  tally
	setups []float64
}

// setUp launches the server setupRuns times, each on a fresh WAL directory:
// launch, listen, WAL open, dial, prefill and a fixed-size warm-up. All but
// the last are checked and stopped; the last serves the measured windows.
func (r *runner) setUp() error {
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := r.tearDown(); err != nil {
				return err
			}
		}
		r.walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", i))
		if err := r.setUpOnce(); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) setUpOnce() error {
	sp, err := startServer(r.hc, r.bin, r.w.serverArgs(r.walDir))
	if err != nil {
		return err
	}
	r.sp, r.cls, r.tally = sp, nil, tally{}
	for c := 0; c < conns; c++ {
		cl, err := dial(sp.addr)
		if err != nil {
			return err
		}
		r.cls = append(r.cls, cl)
	}
	if r.tally.Prefill, err = prefill(r.cls[0], keyRange); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	sts := make([]connStats, conns)
	err = r.each(func(c int) error {
		s := newStream(r.w.config(), r.seed, phaseWarmup, c)
		return closedLoop(r.cls[c], s, r.w.depth, time.Now().Add(time.Minute), r.w.warmOps, &sts[c], nil)
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var st connStats
	for c := range sts {
		st.merge(&sts[c])
	}
	r.tally.add(st.tally)
	if st.failed() != 0 {
		return correctnessError{fmt.Errorf("warm-up: %d of %d ops failed", st.failed(), st.attempted)}
	}
	r.setups = append(r.setups, time.Since(sp.launched).Seconds())
	return nil
}

// each runs fn for every connection concurrently and joins the errors.
func (r *runner) each(fn func(c int) error) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// windowResult is one measured window.
type windowResult struct {
	st        connStats
	elapsed   time.Duration
	serverCPU time.Duration
	loadCPU   time.Duration
	hostSteal float64         // share of the host's CPU time stolen by the hypervisor
	cpuAt     []time.Duration // server CPU at each slice boundary
	tr        *tracer         // nil when untraced
}

// sliceMedians are a window's end-to-end figures taken per slice, each the
// median over the window's full slices. A median over slices keeps a
// burst of host noise (a descheduled vCPU, a slow fsync on a shared disk)
// from moving the whole run's figure.
type sliceMedians struct {
	tput, p50, p99, cpuPerOp float64
	slices                   int
	minSamples               int64
}

func (res *windowResult) medians() sliceMedians {
	var tput, p50, p99, cpu []float64
	m := sliceMedians{minSamples: -1}
	for i := 0; i+1 < len(res.cpuAt) && i < len(res.st.slices); i++ {
		h := &res.st.slices[i]
		n := h.Count()
		if m.minSamples < 0 || n < m.minSamples {
			m.minSamples = n
		}
		if n == 0 {
			continue
		}
		tput = append(tput, float64(n)/sliceLen.Seconds())
		p50 = append(p50, quantile(h, 50)/1e3)
		p99 = append(p99, quantile(h, 99)/1e3)
		cpu = append(cpu, float64(res.cpuAt[i+1]-res.cpuAt[i])/float64(n))
	}
	m.slices = len(tput)
	m.tput, m.p50, m.p99, m.cpuPerOp = median(tput), median(p50), median(p99), median(cpu)
	return m
}

// window drives the server for d with the phase's op streams.
func (r *runner) window(phase int, d time.Duration, traced bool) (windowResult, error) {
	var res windowResult
	sts := make([]connStats, conns)
	trs := make([]*tracer, conns)
	epoch := time.Now()
	if traced {
		for c := range trs {
			trs[c] = newTracer(epoch, c)
		}
	}
	cpu0, err := procCPU(r.sp.pid())
	if err != nil {
		return res, err
	}
	self0 := selfCPU()
	steal0, total0, err := hostTicks()
	if err != nil {
		return res, err
	}
	start := time.Now()
	until := start.Add(d)
	for c := range sts {
		sts[c].start = start
	}
	// Sample the server's CPU at every slice boundary. The sampler ends by
	// itself after the last boundary, which the load loops run past.
	res.cpuAt = append(res.cpuAt, cpu0)
	var samplerErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= int(d/sliceLen); k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
			c, err := procCPU(r.sp.pid())
			if err != nil {
				samplerErr = err
				return
			}
			res.cpuAt = append(res.cpuAt, c)
		}
	}()
	err = r.each(func(c int) error {
		s := newStream(r.w.config(), r.seed, phase, c)
		if r.w.open {
			return openLoop(r.cls[c], s, r.w.rate/conns, r.w.burst, r.w.depth, until, &sts[c], trs[c])
		}
		return closedLoop(r.cls[c], s, r.w.depth, until, 0, &sts[c], trs[c])
	})
	res.elapsed = time.Since(start)
	res.loadCPU = selfCPU() - self0
	if steal1, total1, err := hostTicks(); err == nil && total1 > total0 {
		res.hostSteal = float64(steal1-steal0) / float64(total1-total0)
	}
	cpu1, cerr := procCPU(r.sp.pid())
	res.serverCPU = cpu1 - cpu0
	<-sampled
	cerr = errors.Join(cerr, samplerErr)
	for c := range sts {
		res.st.merge(&sts[c])
		r.tally.add(sts[c].tally)
	}
	if traced {
		res.tr = trs[0]
		for _, t := range trs[1:] {
			res.tr.merge(t)
		}
	}
	if err != nil {
		return res, correctnessError{fmt.Errorf("%d of %d ops failed: %w", res.st.failed(), res.st.attempted, err)}
	}
	if res.st.failed() != 0 {
		return res, correctnessError{fmt.Errorf("%d of %d ops failed (%d error replies)", res.st.failed(), res.st.attempted, res.st.errored)}
	}
	return res, cerr
}

// checkSize asks the server for SIZE on a fresh connection and checks it
// against the tally.
func (r *runner) checkSize(sp *serverProc, what string) error {
	cl, err := dial(sp.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	n, err := cl.Size()
	if err != nil {
		return fmt.Errorf("SIZE: %w", err)
	}
	if err := checkConservation(r.tally, int64(n), what); err != nil {
		return correctnessError{err}
	}
	return nil
}

// tearDown checks the live server's size, stops it, and checks the size it
// reports after draining.
func (r *runner) tearDown() error {
	err := r.checkSize(r.sp, "SIZE at the end")
	for _, cl := range r.cls {
		cl.Close()
	}
	final, serr := r.sp.stop()
	r.sp, r.cls = nil, nil
	if err != nil || serr != nil {
		return errors.Join(err, serr)
	}
	if err := checkConservation(r.tally, final, "final size after drain"); err != nil {
		return correctnessError{err}
	}
	return nil
}

// finish ends the run: the last server is checked and stopped; on the
// durable workload it is then restarted on its WAL directory and the
// recovered size is checked too.
func (r *runner) finish() error {
	if err := r.tearDown(); err != nil {
		return err
	}
	if !r.w.durable {
		return nil
	}
	sp, err := startServer(r.hc, r.bin, r.w.serverArgs(r.walDir))
	if err != nil {
		return fmt.Errorf("restart on %s: %w", r.walDir, err)
	}
	r.sp, r.cls = sp, nil
	return r.tearDown()
}

// abort stops a server left running by a failed phase.
func (r *runner) abort() {
	if r.sp == nil {
		return
	}
	for _, cl := range r.cls {
		cl.Close()
	}
	r.sp.kill()
}

// untraced is the end-to-end run.
func (r *runner) untraced() (result, error) {
	var res result
	if err := r.setUp(); err != nil {
		r.abort()
		return res, err
	}
	win, err := r.window(phaseMeasure, r.dur, false)
	res.attempted, res.failed = win.st.attempted, win.st.failed()
	if err != nil {
		r.abort()
		return res, err
	}
	rss, err := procPeakRSS(r.sp.pid())
	if err != nil {
		r.abort()
		return res, err
	}
	if err := r.finish(); err != nil {
		r.abort()
		return res, err
	}
	sm := win.medians()
	if tailPercentile(sm.minSamples) < 99 {
		return res, fmt.Errorf("a slice with %d latency samples cannot support a p99", sm.minSamples)
	}
	n := win.st.lat.Count()
	acked := float64(win.st.acked)
	// The server's CPU is taken over the whole window, so periodic work
	// (GC, batched frees, fsync bursts) counts however few slices it hits.
	res.metrics = []metric{
		{"lat_p50_us", sm.p50, "us"},
		{"server_cpu_ns_per_op", float64(win.serverCPU.Nanoseconds()) / acked, "ns"},
		{"server_rss_mb", float64(rss) / (1 << 20), "MiB"},
		{"setup_s", median(append([]float64(nil), r.setups...)), "s"},
	}
	// Throughput and the p99 are printed but carry no bound: on a host
	// whose hypervisor steals CPU they move with the steal (see README).
	// failed_frac is always 0 here, since a failed op fails the run.
	res.unbounded = []metric{
		{"throughput_ops_s", sm.tput, "ops/s"},
		{"lat_p99_us", sm.p99, "us"},
		{"failed_frac", float64(win.st.failed()) / float64(win.st.attempted), "ratio"},
		{"server_cpu_ns_per_op_slice_median", sm.cpuPerOp, "ns"},
		{"host_steal_frac", win.hostSteal, "ratio"},
	}
	res.record = map[string]any{
		"slices":                  sm.slices,
		"slice_s":                 sliceLen.Seconds(),
		"min_slice_samples":       sm.minSamples,
		"latency_samples":         n,
		"window_throughput_ops_s": acked / win.elapsed.Seconds(),
		"window_lat_p50_us":       quantile(&win.st.lat, 50) / 1e3,
		"window_lat_p99_us":       quantile(&win.st.lat, 99) / 1e3,
		"window_tail_percentile":  tailPercentile(n),
		"window_lat_tail_us":      quantile(&win.st.lat, tailPercentile(n)) / 1e3,
		"setup_runs_s":            r.setups,
		"loadgen_cpu_ns_per_op":   float64(win.loadCPU.Nanoseconds()) / acked,
		"measured_s":              win.elapsed.Seconds(),
		"expected_final_size":     r.tally.expected(),
		"open_loop_late_p50_us":   quantile(&win.st.late, 50) / 1e3,
		"open_loop_late_p99_us":   quantile(&win.st.late, 99) / 1e3,
		"open_loop_target_ops_s":  r.w.rate,
	}
	return res, nil
}

// reclaimSampler scrapes the server's reclaim gauges every interval until
// stopped and keeps their maxima.
type reclaimSampler struct {
	stop     chan struct{}
	done     chan struct{}
	limboMax float64
	lagMax   float64
	err      error
}

func (r *runner) startSampler(every time.Duration) *reclaimSampler {
	s := &reclaimSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			snap, err := scrape(r.hc, r.sp.metrics)
			if err != nil {
				s.err = err
				return
			}
			s.limboMax = max(s.limboMax, snap.total("kv_reclaim_limbo"))
			s.lagMax = max(s.lagMax, snap.total("kv_reclaim_epoch_lag"))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *reclaimSampler) finish() error {
	close(s.stop)
	<-s.done
	return s.err
}

// traced is the per-layer run: an untraced window as the baseline, a
// traced window between two scrapes, then the ladder.
func (r *runner) traced() (result, error) {
	var res result
	fail := func(err error) (result, error) {
		r.abort()
		return res, err
	}
	if err := r.setUp(); err != nil {
		return fail(err)
	}
	base, err := r.window(phaseMeasure, r.dur/2, false)
	res.attempted, res.failed = base.st.attempted, base.st.failed()
	if err != nil {
		return fail(err)
	}
	before, err := scrape(r.hc, r.sp.metrics)
	if err != nil {
		return fail(err)
	}
	sampler := r.startSampler(100 * time.Millisecond)
	tw, err := r.window(phaseTraced, r.dur/2, true)
	res.attempted += tw.st.attempted
	res.failed += tw.st.failed()
	serr := sampler.finish()
	if err != nil || serr != nil {
		return fail(errors.Join(err, serr))
	}
	after, err := scrape(r.hc, r.sp.metrics)
	if err != nil {
		return fail(err)
	}
	if err := r.finish(); err != nil {
		return fail(err)
	}
	d := func(name string) float64 { return counterDelta(before, after, name) }
	// The ladder replays the stream in batches of the size the server saw.
	opsPerBatch := ratio(d("kv_server_batched_ops_total"), d("kv_server_batches_total"))
	ladderBatch := max(int(math.Round(opsPerBatch)), 1)
	rung := max(r.dur/20, 200*time.Millisecond)
	lad, err := runLadder(r.w, r.seed, ladderBatch, rung, filepath.Join(r.dir, "ladder-wal"))
	if err != nil {
		return res, err
	}
	if err := writeSpans(r.spanFile, tw.tr.kept); err != nil {
		return res, err
	}

	serverOps := d("kv_server_ops_total")
	perKop := func(name string) float64 { return 1000 * ratio(d(name), serverOps) }
	batchLat, err := histDelta(before, after, "kv_op_latency_ns",
		map[string]string{"op": "GET"}, map[string]string{"op": "SET"}, map[string]string{"op": "DEL"})
	if err != nil {
		return res, err
	}
	fsync, err := histDelta(before, after, "kv_wal_fsync_ns")
	if err != nil {
		return res, err
	}
	commit, err := histDelta(before, after, "kv_wal_commit_ns")
	if err != nil {
		return res, err
	}
	attempts := d("kv_engine_ops_total") + d("kv_engine_retries_total")
	tr := tw.tr
	baseAcked := float64(base.st.acked)
	baseM, twM := base.medians(), tw.medians()
	serverNsPerOp := float64(base.serverCPU.Nanoseconds()) / baseAcked
	res.metrics = []metric{
		{"client.encode_ns_per_op", ratio(float64(tr.self[kindEncode]), float64(tr.ops)), "ns"},
		{"client.flush_us_per_batch", ratio(float64(tr.self[kindFlush]), float64(tr.batches)) / 1e3, "us"},
		{"client.wait_us_per_batch", ratio(float64(tr.self[kindWait]), float64(tr.batches)) / 1e3, "us"},
		{"client.decode_ns_per_op", ratio(float64(tr.self[kindDecode]), float64(tr.ops)), "ns"},
		{"proto.decode_ns_per_op", lad.decode, "ns"},
		{"proto.encode_ns_per_op", lad.encode, "ns"},
		{"server.ops_per_batch", opsPerBatch, "ops"},
		{"server.flushes_per_kop", perKop("kv_server_flushes_total"), "count"},
		{"server.batch_p50_us", quantile(batchLat, 50) / 1e3, "us"},
		{"server.batch_p99_us", quantile(batchLat, 99) / 1e3, "us"},
		{"container.get_ns", lad.get, "ns"},
		{"container.update_ns", lad.update, "ns"},
		{"core.attempts_per_op", ratio(attempts, d("kv_engine_ops_total")), "ratio"},
		{"core.scx_fail_ratio", ratio(d("kv_engine_scx_fails_total"), attempts), "ratio"},
		{"core.llx_fail_ratio", ratio(d("kv_engine_llx_fails_total"), attempts), "ratio"},
		{"reclaim.advances_per_kop", perKop("kv_reclaim_advances_total"), "count"},
		{"reclaim.limbo_max", max(sampler.limboMax, after.total("kv_reclaim_limbo")), "count"},
		{"reclaim.epoch_lag_max", max(sampler.lagMax, after.total("kv_reclaim_epoch_lag")), "count"},
		{"wal.fsyncs_per_kop", perKop("kv_wal_fsyncs_total"), "count"},
		{"wal.records_per_commit", ratio(d("kv_wal_appends_total"), d("kv_wal_commits_total")), "count"},
		{"wal.fsync_p50_us", quantile(fsync, 50) / 1e3, "us"},
		{"wal.fsync_p99_us", quantile(fsync, 99) / 1e3, "us"},
		{"wal.commit_p99_us", quantile(commit, 99) / 1e3, "us"},
		{"wal.append_ns_per_op", lad.walAppend, "ns"},
		{"driver.cpu_ns_per_op", float64(base.loadCPU.Nanoseconds()) / baseAcked, "ns"},
		{"driver.late_p99_us", quantile(&base.st.late, 99) / 1e3, "us"},
		{"driver.host_steal_frac", base.hostSteal, "ratio"},
		{"ladder.ns_per_op", lad.total(), "ns"},
		{"ladder.unexplained_frac", 1 - lad.total()/serverNsPerOp, "ratio"},
		{"trace.overhead_frac", twM.p50/baseM.p50 - 1, "ratio"},
	}
	res.record = map[string]any{
		"span_file":                     r.spanFile,
		"spans_kept":                    len(tr.kept),
		"traced_batches":                tr.batches,
		"server_ops_scraped":            serverOps,
		"baseline_server_cpu_ns_per_op": serverNsPerOp,
		"baseline_lat_p50_us":           baseM.p50,
		"traced_lat_p50_us":             twM.p50,
		"ladder_batch_ops":              ladderBatch,
		"layer_targets":                 layerTargets,
	}
	return res, nil
}

// layerTargets records, for each per-layer metric, the end-to-end metric
// and workload it is expected to move.
var layerTargets = map[string]string{
	"client.*":                    "lat_p50_us on read-hot (also throughput_ops_s, unbounded)",
	"proto.*":                     "server_cpu_ns_per_op on read-hot (also throughput_ops_s, unbounded); about 0 on multiset-churn",
	"server.*":                    "server_cpu_ns_per_op on read-hot (also lat_p99_us everywhere, unbounded)",
	"container.*":                 "server_cpu_ns_per_op on multiset-churn (also throughput_ops_s, unbounded); small on read-hot",
	"core.*":                      "server_cpu_ns_per_op on multiset-churn",
	"reclaim.*":                   "server_rss_mb on multiset-churn (also lat_p99_us, unbounded)",
	"wal.*":                       "server_cpu_ns_per_op, lat_p50_us on durable-write (also lat_p99_us, unbounded); absent (0) elsewhere",
	"driver.*, ladder.*, trace.*": "validity of the run, not a target",
}
