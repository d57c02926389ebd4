package core_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"pragmaprim/internal/core"
)

// TestConcurrentCounterNoLostUpdates hammers a single record with LLX/SCX
// increments from many goroutines; linearizability of SCX means no increment
// can be lost.
func TestConcurrentCounterNoLostUpdates(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 2
	}
	const perProc = 500
	r := newWords(0)

	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := core.NewProcess()
			for i := 0; i < perProc; i++ {
				for {
					snap, st := llx(p, r)
					if st != core.LLXOK {
						continue
					}
					if p.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := r.Word(0), uint64(procs*perProc); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
}

// TestConcurrentDisjointAllSucceed reproduces claim A3 (Section 1): "If SCXs
// being performed concurrently depend on LLXs of disjoint sets of
// Data-records, they all succeed."
func TestConcurrentDisjointAllSucceed(t *testing.T) {
	const procs = 8
	const perProc = 2000

	recs := make([]*core.Record, procs)
	for i := range recs {
		recs[i] = newWords(0)
	}

	metrics := make([]*core.Metrics, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := core.NewProcess()
			r := recs[g]
			for i := 0; i < perProc; i++ {
				snap, st := llx(p, r)
				if st != core.LLXOK {
					t.Errorf("proc %d: LLX on private record = %v", g, st)
					return
				}
				if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
					t.Errorf("proc %d: SCX on disjoint record failed", g)
					return
				}
			}
			metrics[g] = &p.Metrics
		}(g)
	}
	wg.Wait()

	var total core.Metrics
	for _, m := range metrics {
		if m == nil {
			t.Fatal("a goroutine aborted early")
		}
		total.Add(m)
	}
	if total.AbortSteps != 0 {
		t.Errorf("disjoint workload performed %d abort steps, want 0", total.AbortSteps)
	}
	if got, want := total.SCXSuccesses, int64(procs*perProc); got != want {
		t.Errorf("SCX successes = %d, want %d", got, want)
	}
	// Every SCX here has k=1, so CAS steps must be exactly 2 per SCX.
	if got, want := total.CASSteps(), int64(2*procs*perProc); got != want {
		t.Errorf("CAS steps = %d, want exactly %d on a contention-free run", got, want)
	}
}

// TestSnapshotConsistencyUnderWrites checks the LLX snapshot guarantee: with
// a writer alternating field0 := k, field1 := k, every instantaneous state of
// the record satisfies field0 ∈ {field1, field1+1}; a torn (non-atomic) read
// could observe field1 > field0, which LLX must never return.
func TestSnapshotConsistencyUnderWrites(t *testing.T) {
	const rounds = 3000
	r := newWords(0, 0)
	done := make(chan struct{})

	go func() {
		defer close(done)
		p := core.NewProcess()
		for k := uint64(1); k <= rounds; k++ {
			for f := 0; f <= 1; f++ {
				for {
					if _, st := llx(p, r); st != core.LLXOK {
						continue
					}
					if p.SCXWord([]*core.Record{r}, nil, r.WordField(f), k) {
						break
					}
				}
			}
		}
	}()

	p := core.NewProcess()
	checked := 0
	for {
		select {
		case <-done:
			if checked == 0 {
				t.Fatal("reader validated no snapshots")
			}
			return
		default:
		}
		snap, st := llx(p, r)
		if st != core.LLXOK {
			continue
		}
		f0, f1 := snap.Word(0), snap.Word(1)
		if f0 != f1 && f0 != f1+1 {
			t.Fatalf("torn snapshot: field0=%d field1=%d", f0, f1)
		}
		checked++
	}
}

// TestConcurrentFinalizeExactlyOnce has many processes race to finalize the
// same record; exactly one finalizing SCX must succeed, and every process
// must terminate (progress) with all later LLXs reporting Finalized.
func TestConcurrentFinalizeExactlyOnce(t *testing.T) {
	const procs = 8
	target := newWords(0)
	dests := make([]*core.Record, procs)
	for i := range dests {
		dests[i] = newWords(0)
	}

	var successes sync.Map
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := core.NewProcess()
			for {
				if _, st := llx(p, dests[g]); st != core.LLXOK {
					continue
				}
				_, st := llx(p, target)
				if st == core.LLXFinalized {
					return // someone else finalized it; done
				}
				if st != core.LLXOK {
					continue
				}
				if p.SCXWord([]*core.Record{dests[g], target}, []*core.Record{target},
					dests[g].WordField(0), uint64(g)+1) {
					successes.Store(g, true)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	n := 0
	successes.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("%d finalizing SCXs succeeded, want exactly 1", n)
	}
	if !target.Finalized() {
		t.Fatal("target not finalized")
	}
}

// TestConcurrentOverlappingPairsProgress runs SCXs over overlapping pairs of
// records (the livelock-prone pattern); the total-order constraint (records
// always frozen in index order) guarantees global progress, so every
// goroutine must finish its quota.
func TestConcurrentOverlappingPairsProgress(t *testing.T) {
	const procs = 6
	const perProc = 300
	const nrecs = 4
	recs := make([]*core.Record, nrecs)
	for i := range recs {
		recs[i] = newWords(0)
	}

	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			p := core.NewProcess()
			for i := 0; i < perProc; i++ {
				// Pick two distinct records, frozen in index order — the
				// paper's Section 4.1 ordering constraint.
				a := rng.Intn(nrecs - 1)
				b := a + 1 + rng.Intn(nrecs-a-1)
				for {
					sa, st := llx(p, recs[a])
					if st != core.LLXOK {
						continue
					}
					if _, st := llx(p, recs[b]); st != core.LLXOK {
						continue
					}
					if p.SCXWord([]*core.Record{recs[a], recs[b]}, nil,
						recs[a].WordField(0), sa.Word(0)+1) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()

	sum := uint64(0)
	for _, r := range recs {
		sum += r.Word(0)
	}
	if sum != uint64(procs*perProc) {
		t.Fatalf("sum of counters = %d, want %d", sum, procs*perProc)
	}
}

// TestQuickSingleProcessSequential is a property test: under sequential use,
// LLX always snapshots the current values, SCX always succeeds and behaves
// like a plain store, mirroring a trivial sequential model.
func TestQuickSingleProcessSequential(t *testing.T) {
	f := func(vals []int16, writes []uint8) bool {
		if len(vals) == 0 {
			vals = []int16{0}
		}
		if len(vals) > 16 {
			vals = vals[:16]
		}
		model := make([]uint64, len(vals))
		for i, v := range vals {
			model[i] = uint64(uint16(v))
		}
		r := newWords(model...)
		p := core.NewProcess()
		for wi, w := range writes {
			field := int(w) % len(vals)
			snap, st := llx(p, r)
			if st != core.LLXOK {
				return false
			}
			for i := range model {
				if snap.Word(i) != model[i] {
					return false
				}
			}
			newVal := model[field] + uint64(wi) + 1 // a value the field never held
			if !p.SCXWord([]*core.Record{r}, nil, r.WordField(field), newVal) {
				return false
			}
			model[field] = newVal
			if r.Word(field) != newVal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentVLX checks VLX under contention: a VLX that returns true must
// imply no SCX touched any record in V between the LLXs and the VLX. We use
// the paired-counter invariant: writer bumps both records under one SCX each,
// a validator re-reads after a successful VLX and must see identical values.
func TestConcurrentVLX(t *testing.T) {
	const rounds = 2000
	a := newWords(0)
	b := newWords(0)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer keeps a and b equal, bumping a then b
		defer wg.Done()
		p := core.NewProcess()
		for k := uint64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range []*core.Record{a, b} {
				for {
					if _, st := llx(p, r); st != core.LLXOK {
						continue
					}
					if p.SCXWord([]*core.Record{r}, nil, r.WordField(0), k) {
						break
					}
				}
			}
		}
	}()

	p := core.NewProcess()
	validated := 0
	for i := 0; i < rounds; i++ {
		sa, st := llx(p, a)
		if st != core.LLXOK {
			continue
		}
		sb, st := llx(p, b)
		if st != core.LLXOK {
			continue
		}
		if !p.VLX([]*core.Record{a, b}) {
			continue
		}
		// VLX success: neither record changed since its LLX, so the two
		// snapshots coexisted; the writer's invariant is a == b or a == b+1.
		va, vb := sa.Word(0), sb.Word(0)
		if va != vb && va != vb+1 {
			t.Fatalf("VLX validated inconsistent snapshots a=%d b=%d", va, vb)
		}
		validated++
	}
	close(stop)
	wg.Wait()
	if validated == 0 {
		t.Skip("no VLX validated under contention; inconclusive run")
	}
}
