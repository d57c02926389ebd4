package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pragmaprim/internal/container"
	"pragmaprim/internal/core"
	"pragmaprim/internal/history"
	"pragmaprim/internal/linearizability"
	"pragmaprim/internal/multiset"
	"pragmaprim/internal/mwcas"
	"pragmaprim/internal/shard"
	"pragmaprim/internal/stats"
	"pragmaprim/internal/template"
	"pragmaprim/internal/workload"
)

// newRecords builds n two-word records whose word 0 holds their index.
func newRecords(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = core.NewTypedRecord(2, 0)
		recs[i].SetWord(0, uint64(i))
	}
	return recs
}

// linkAll LLXs every record on p, panicking if one fails: the experiments'
// private records are never contended at that point.
func linkAll(p *core.Process, recs []*core.Record) {
	var snap core.Fields
	for _, r := range recs {
		if st := p.LLXFields(r, &snap); st != core.LLXOK {
			panic("harness: LLX failed on private record")
		}
	}
}

// increment is the experiments' template attempt body: bump word 0 of r.
func increment(r *core.Record) func(*template.Ctx) (struct{}, template.Action) {
	return func(c *template.Ctx) (struct{}, template.Action) {
		snap, st := c.LLXF(r)
		if st != core.LLXOK {
			return struct{}{}, template.Retry
		}
		// New value: one more than the field held (monotone count).
		if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
			return struct{}{}, template.Done
		}
		return struct{}{}, template.Retry
	}
}

// E1StepCount reproduces claim A1 (Section 1): an uncontended SCX over k
// records finalizing f of them costs k+1 CAS steps and f+2 writes, LLXs
// included.
func E1StepCount() *stats.Table {
	t := stats.NewTable(
		"E1: uncontended SCX cost — paper claim: k+1 CAS steps, f+2 writes (Sec. 1)",
		"k", "f", "CAS(measured)", "CAS(paper)", "writes(measured)", "writes(paper)", "match")
	for k := 1; k <= 5; k++ {
		for _, f := range []int{0, k / 2, k} {
			p := core.NewProcess()
			recs := newRecords(k)
			linkAll(p, recs)
			p.Metrics.Reset()
			// New value: 1 into a fresh record's zero word.
			if !p.SCXWord(recs, recs[k-f:], recs[0].WordField(1), 1) {
				panic("harness: uncontended SCX failed")
			}
			cas, writes := p.Metrics.CASSteps(), p.Metrics.WriteSteps()
			match := cas == int64(k+1) && writes == int64(f+2)
			t.AddRow(k, f, cas, k+1, writes, f+2, match)
		}
	}
	return t
}

// E2VLXReads reproduces claim A2 (Section 1): a VLX over k records performs
// exactly k shared-memory reads and no CAS.
func E2VLXReads() *stats.Table {
	t := stats.NewTable(
		"E2: VLX cost — paper claim: k reads, 0 CAS (Sec. 1)",
		"k", "reads(measured)", "reads(paper)", "CAS(measured)", "match")
	for k := 1; k <= 8; k++ {
		p := core.NewProcess()
		recs := newRecords(k)
		linkAll(p, recs)
		p.Metrics.Reset()
		if !p.VLX(recs) {
			panic("harness: uncontended VLX failed")
		}
		reads, cas := p.Metrics.VLXReads, p.Metrics.CASSteps()
		t.AddRow(k, reads, k, cas, reads == int64(k) && cas == 0)
	}
	return t
}

// E3Disjoint reproduces claim A3 (Sections 1, 3.2): concurrent SCXs over
// disjoint V-sets all succeed; overlapping SCXs may fail individually but
// the system makes progress (every process finishes its quota). The
// increment loops run on the template engine, whose counters must agree
// with the core SCX metrics.
func E3Disjoint() *stats.Table {
	t := stats.NewTable(
		"E3: SCX success under disjoint vs. shared records — paper claim: disjoint SCXs all succeed (Sec. 1)",
		"mode", "procs", "SCX attempts", "successes", "success%", "engine agrees", "quota met")
	const perProc = 20000

	for _, procs := range []int{2, 4, 8} {
		for _, shared := range []bool{false, true} {
			recs := newRecords(procs)
			metrics := make([]core.Metrics, procs)
			var eng template.OpStats
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h := core.NewHandle()
					r := recs[g]
					if shared {
						r = recs[0]
					}
					inc := increment(r)
					for done := 0; done < perProc; done++ {
						template.Run(h, nil, &eng, inc)
					}
					metrics[g] = h.Process().Metrics
				}(g)
			}
			wg.Wait()

			var total core.Metrics
			for i := range metrics {
				total.Add(&metrics[i])
			}
			mode := "disjoint"
			if shared {
				mode = "shared"
			}
			snap := eng.Snapshot()
			agrees := snap.Ops == int64(procs*perProc) &&
				snap.SCXFails == total.SCXOps-total.SCXSuccesses
			rate := 100 * float64(total.SCXSuccesses) / float64(total.SCXOps)
			t.AddRow(mode, procs, total.SCXOps, total.SCXSuccesses,
				rate, agrees, total.SCXSuccesses == int64(procs*perProc))
		}
	}
	return t
}

// E4KCASComparison reproduces claim A4 (Section 2): uncontended k-CAS costs
// 2k+1 CAS steps where SCX over the same k records costs k+1.
func E4KCASComparison() *stats.Table {
	t := stats.NewTable(
		"E4: SCX vs. k-CAS step counts — paper claim: k+1 vs. 2k+1 CAS (Sec. 2)",
		"k", "SCX CAS", "SCX paper", "kCAS CAS", "kCAS paper", "kCAS/SCX", "match")
	for k := 1; k <= 6; k++ {
		// SCX side.
		p := core.NewProcess()
		recs := newRecords(k)
		linkAll(p, recs)
		p.Metrics.Reset()
		// New value: one more than the field held (monotone count).
		if !p.SCXWord(recs, nil, recs[0].WordField(0), recs[0].Word(0)+1) {
			panic("harness: SCX failed")
		}
		scxCAS := p.Metrics.CASSteps()

		// k-CAS side.
		cells := make([]*mwcas.Cell[int], k)
		old := make([]int, k)
		newv := make([]int, k)
		for i := range cells {
			cells[i] = mwcas.NewCell(i)
			old[i], newv[i] = i, i+1000
		}
		var st mwcas.Stats
		if !mwcas.MWCAS(cells, old, newv, &st) {
			panic("harness: MWCAS failed")
		}
		kcasCAS := st.CASAttempts.Load()

		ratio := float64(kcasCAS) / float64(scxCAS)
		t.AddRow(k, scxCAS, k+1, kcasCAS, 2*k+1, ratio,
			scxCAS == int64(k+1) && kcasCAS == int64(2*k+1))
	}
	return t
}

// E5Progress reproduces claim A5 (Section 3.2, P1-P4): with processes
// stalled mid-SCX (the moral equivalent of crashes), the remaining processes
// help the stalled operations to completion and keep finishing their own.
func E5Progress() *stats.Table {
	t := stats.NewTable(
		"E5: progress with stalled operators — paper claim: non-blocking via helping (Sec. 3.2, 4)",
		"stalled ops", "survivors", "ops/survivor", "completed", "all quotas met")

	const stallTarget = 2
	const survivors = 4
	const perSurvivor = 5000

	recs := newRecords(4)

	var stalledCount atomic.Int32
	release := make(chan struct{})
	stalledSCXs := make(chan struct{}, stallTarget)
	core.SetStepHook(func(k core.StepKind, _ *core.SCXRecord, _ *core.Record) {
		if k != core.StepUpdateCAS {
			return
		}
		if n := stalledCount.Add(1); n <= stallTarget {
			stalledSCXs <- struct{}{}
			<-release
		}
	})
	defer core.SetStepHook(nil)

	// Victims: their SCXs freeze records and stall just before the update
	// CAS, like a crashed process would. They increment, so their late CAS
	// cannot land on a value the survivors have counted through.
	var victims sync.WaitGroup
	for v := 0; v < stallTarget; v++ {
		victims.Add(1)
		go func(v int) {
			defer victims.Done()
			p := core.NewProcess()
			r := recs[v]
			var snap core.Fields
			if st := p.LLXFields(r, &snap); st != core.LLXOK {
				return
			}
			// New value: one more than the field held (monotone count).
			p.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1)
		}(v)
	}
	for i := 0; i < stallTarget; i++ {
		<-stalledSCXs // both victims are now frozen mid-SCX
	}

	// Survivors operate on the same records and must make progress by
	// helping the stalled SCXs; their increments run on the template engine
	// like any structure update would.
	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < survivors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := core.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)))
			for done := 0; done < perSurvivor; done++ {
				template.Run(h, nil, nil, increment(recs[rng.Intn(len(recs))]))
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(release)
	victims.Wait()

	t.AddRow(stallTarget, survivors, perSurvivor, completed.Load(),
		completed.Load() == int64(survivors*perSurvivor))
	return t
}

// E6Transitions reproduces claim A6 (Figures 2/3/7): under a contended
// workload, every sampled (state, allFrozen) pair of every SCX-record is a
// vertex of Figure 2, and every record ends Committed or Aborted.
func E6Transitions() *stats.Table {
	t := stats.NewTable(
		"E6: SCX-record state machine — paper claim: only Fig. 2 vertices occur",
		"state", "allFrozen", "samples", "valid vertex")

	type pair struct {
		state  core.State
		frozen bool
	}
	counts := make(map[pair]int64)
	var mu sync.Mutex
	core.SetStepHook(func(_ core.StepKind, u *core.SCXRecord, _ *core.Record) {
		p := pair{state: u.State(), frozen: u.AllFrozen()}
		mu.Lock()
		counts[p]++
		mu.Unlock()
	})
	defer core.SetStepHook(nil)

	recs := newRecords(3)
	const procs = 4
	const perProc = 5000
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := core.NewProcess()
			var sa, sb core.Fields
			for i := 0; i < perProc; i++ {
				a, b := recs[(g+i)%3], recs[(g+i+1)%3]
				if st := p.LLXFields(a, &sa); st != core.LLXOK {
					continue
				}
				if st := p.LLXFields(b, &sb); st != core.LLXOK {
					continue
				}
				// New value: one more than the field held (monotone count).
				p.SCXWord([]*core.Record{a, b}, nil, a.WordField(0), sa.Word(0)+1)
			}
		}(g)
	}
	wg.Wait()

	valid := func(p pair) bool {
		switch p.state {
		case core.StateInProgress:
			return true
		case core.StateCommitted:
			return p.frozen
		case core.StateAborted:
			return !p.frozen
		default:
			return false
		}
	}
	for _, p := range []pair{
		{core.StateInProgress, false},
		{core.StateInProgress, true},
		{core.StateCommitted, true},
		{core.StateAborted, false},
		{core.StateCommitted, false}, // must have 0 samples
		{core.StateAborted, true},    // must have 0 samples
	} {
		t.AddRow(p.state.String(), p.frozen, counts[p], valid(p) || counts[p] == 0)
	}
	return t
}

// E7Linearizability reproduces claim A7 (Theorem 6): recorded concurrent
// multiset histories are linearizable per the Wing-Gong checker.
func E7Linearizability(rounds int) *stats.Table {
	t := stats.NewTable(
		"E7: multiset linearizability — paper claim: Theorem 6",
		"procs", "ops/proc", "rounds", "linearizable")
	const procs = 3
	const opsPerProc = 5
	const keyRange = 3

	passed := 0
	for round := 0; round < rounds; round++ {
		m := multiset.New[int]()
		rec := history.NewRecorder(procs)
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*procs + g)))
				h := core.AcquireHandle()
				defer h.Release()
				s := m.Attach(h)
				pr := rec.Proc(g)
				for i := 0; i < opsPerProc; i++ {
					key := rng.Intn(keyRange)
					count := 1 + rng.Intn(2)
					switch rng.Intn(3) {
					case 0:
						pr.Invoke(linearizability.MultisetInput{Op: "insert", Key: key, Count: count},
							func() any { s.Insert(key, count); return nil })
					case 1:
						pr.Invoke(linearizability.MultisetInput{Op: "delete", Key: key, Count: count},
							func() any { return s.Delete(key, count) })
					default:
						pr.Invoke(linearizability.MultisetInput{Op: "get", Key: key},
							func() any { return s.Get(key) })
					}
				}
			}(g)
		}
		wg.Wait()
		if linearizability.Check(linearizability.MultisetModel(), rec.Ops()) {
			passed++
		}
	}
	t.AddRow(procs, opsPerProc, rounds, fmt.Sprintf("%d/%d", passed, rounds))
	return t
}

// E8Throughput reproduces claim A8 (Section 6): the LLX/SCX structures scale
// with threads while the coarse lock serializes; it prints the thread-sweep
// series for each structure and mix, with the template engine's SCX failure
// rate as the contention figure (the lock baselines report "-"). All five
// LLX/SCX structures run — the queue and stack through their
// produce/consume container adapters.
func E8Throughput(threads []int, dur time.Duration) *stats.Table {
	t := stats.NewTable(
		"E8: throughput scaling, ops/sec (prefilled to half of key range)",
		"structure", "mix(g/i/d)", "dist", "keys", "threads", "Mops/s", "scx-fail%")
	cfgs := []workload.Config{
		{KeyRange: 1 << 10, Dist: workload.Uniform, Mix: workload.ReadMostly},
		{KeyRange: 1 << 10, Dist: workload.Uniform, Mix: workload.UpdateHeavy},
	}
	for _, f := range Factories() {
		for _, cfg := range cfgs {
			for _, th := range threads {
				r := RunThroughput(f, cfg, th, dur)
				t.AddRow(r.Structure, r.Mix.String(), string(r.Dist), r.KeyRange,
					r.Threads, r.OpsPerSec()/1e6, failPctCell(r.Engine))
			}
		}
	}
	return t
}

// failPctCell renders the engine's SCX failure rate, or "-" for structures
// outside the engine.
func failPctCell(c template.Counters) any {
	if c.Attempts == 0 {
		return "-"
	}
	return stats.RatePct(c.SCXFails, c.Attempts)
}

// singleCoreNote flags tables whose point is parallel scaling when the run
// cannot exhibit any (GOMAXPROCS=1 serializes the workers).
func singleCoreNote() string {
	if runtime.GOMAXPROCS(0) > 1 {
		return ""
	}
	return " [single-core run: GOMAXPROCS=1 serializes workers, sharding gains need parallelism]"
}

// E9ShardScaling measures the sharding claim that follows from the paper's
// disjoint-access progress property (Sections 1, 3.2): because an
// operation's contention window is its private read set, hash-partitioned
// instances compose with no cross-shard coordination, so throughput under a
// hot-key (Zipf) update mix should recover as shards split the hot keys
// apart. Rows sweep shard counts (1 = the unsharded structure) under
// uniform and Zipf keys; vs-1sh is each row's speedup over the unsharded
// row of the same distribution. The unsharded baseline always runs first —
// explicit 1s in the sweep are folded into it — so the speedup column is
// never without its denominator.
func E9ShardScaling(shards []int, threads int, dur time.Duration) *stats.Table {
	t := stats.NewTable(
		"E9: sharded multiset throughput vs. shard count, update-heavy mix"+singleCoreNote(),
		"structure", "dist", "keys", "threads", "Mops/s", "vs-1sh", "scx-fail%")
	var widths []int
	for _, n := range shards {
		if n > 1 {
			widths = append(widths, n)
		}
	}
	base := LLXMultisetFactory()
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
		cfg := workload.Config{KeyRange: 1 << 10, Dist: dist, Mix: workload.UpdateHeavy}
		r := RunThroughput(base, cfg, threads, dur)
		unsharded := r.OpsPerSec() / 1e6
		t.AddRow(r.Structure, string(r.Dist), r.KeyRange, r.Threads,
			unsharded, "-", failPctCell(r.Engine))
		for _, n := range widths {
			r := RunThroughput(ShardedFactory(base, n), cfg, threads, dur)
			mops := r.OpsPerSec() / 1e6
			speedup := any("-")
			if unsharded > 0 {
				speedup = mops / unsharded
			}
			t.AddRow(r.Structure, string(r.Dist), r.KeyRange, r.Threads,
				mops, speedup, failPctCell(r.Engine))
		}
	}
	return t
}

// E10HotKeyContention isolates what sharding does to contention itself: a
// Zipf update-heavy workload hammers a few hot keys, and the table reports
// the engine's SCX failure rate and retries per operation as shards peel
// hot keys onto separate instances, plus how concentrated the load on the
// hottest shard remains (share of all attempts, and its own failure rate)
// from the per-shard counters.
func E10HotKeyContention(shards []int, threads int, dur time.Duration) *stats.Table {
	t := stats.NewTable(
		"E10: hot-key (zipf) contention vs. shard count, llx-multiset"+singleCoreNote(),
		"shards", "threads", "Mops/s", "retries/op", "scx-fail%", "hot-shard att%", "hot-shard scx-fail%")
	cfg := workload.Config{KeyRange: 1 << 10, Dist: workload.Zipf, Mix: workload.UpdateHeavy}
	base := LLXMultisetFactory()
	for _, n := range shards {
		sh := shard.New(n, func(int) container.Container { return base.New() })
		r := RunThroughputOn(fmt.Sprintf("llx-multiset/%dsh", n), sh, cfg, threads, dur)

		// Per-shard counters include the prefill, which is uncontended and
		// spread thin; its attempts only dilute shares marginally.
		var hottest template.Counters
		var totalAttempts int64
		sh.ForEachShard(func(_ int, c container.Container) {
			cnt := c.EngineStats()
			totalAttempts += cnt.Attempts
			if cnt.Attempts > hottest.Attempts {
				hottest = cnt
			}
		})
		retriesPerOp := 0.0
		if r.Engine.Ops > 0 {
			retriesPerOp = float64(r.Engine.Retries()) / float64(r.Engine.Ops)
		}
		t.AddRow(n, r.Threads, r.OpsPerSec()/1e6, retriesPerOp,
			failPctCell(r.Engine),
			stats.RatePct(hottest.Attempts, totalAttempts),
			failPctCell(hottest))
	}
	return t
}
