package template_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/template"
)

// newWords returns a record whose word fields hold vals, in order.
func newWords(vals ...uint64) *core.Record {
	r := core.NewTypedRecord(len(vals), 0)
	for i, v := range vals {
		r.SetWord(i, v)
	}
	return r
}

// llx is LLXFields returning the snapshot by value, for test brevity.
func llx(p *core.Process, r *core.Record) (core.Fields, core.LLXStatus) {
	var f core.Fields
	st := p.LLXFields(r, &f)
	return f, st
}

func mustLLX(t *testing.T, p *core.Process, r *core.Record) core.Fields {
	t.Helper()
	snap, st := llx(p, r)
	if st != core.LLXOK {
		t.Fatalf("LLX = %v, want OK", st)
	}
	return snap
}

// TestRunUncontendedSingleAttempt pins the quiet-path accounting: one
// operation, one attempt, no failures.
func TestRunUncontendedSingleAttempt(t *testing.T) {
	h := core.NewHandle()
	r := newWords(0)
	var st template.OpStats
	got := template.Run(h, nil, &st, func(c *template.Ctx) (int, template.Action) {
		snap, s := c.LLXF(r)
		if s != core.LLXOK {
			return 0, template.Retry
		}
		if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+7) {
			return int(snap.Word(0)) + 7, template.Done
		}
		return 0, template.Retry
	})
	if got != 7 {
		t.Fatalf("Run = %d, want 7", got)
	}
	snap := st.Snapshot()
	if snap.Ops != 1 || snap.Attempts != 1 || snap.Retries() != 0 ||
		snap.LLXFails != 0 || snap.SCXFails != 0 {
		t.Fatalf("counters = %+v, want exactly one clean attempt", snap)
	}
}

// TestRunContendedCountersMatchObservedRetries hammers one record from
// GOMAXPROCS goroutines under the race detector. Every goroutine counts its
// own attempt-body executions; the engine's shared counters must agree with
// the observed totals exactly, and attempts must decompose into operations
// plus failures' retries.
func TestRunContendedCountersMatchObservedRetries(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 2
	}
	const perG = 2000

	r := newWords(0)
	var st template.OpStats
	observed := make([]int64, procs) // attempt-body executions per goroutine

	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := core.NewHandle()
			for i := 0; i < perG; i++ {
				template.Run(h, nil, &st, func(c *template.Ctx) (struct{}, template.Action) {
					observed[g]++
					snap, s := c.LLXF(r)
					if s != core.LLXOK {
						return struct{}{}, template.Retry
					}
					if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
						return struct{}{}, template.Done
					}
					return struct{}{}, template.Retry
				})
			}
		}(g)
	}
	wg.Wait()

	var observedAttempts int64
	for _, n := range observed {
		observedAttempts += n
	}
	snap := st.Snapshot()
	if snap.Ops != int64(procs*perG) {
		t.Errorf("Ops = %d, want %d", snap.Ops, procs*perG)
	}
	if snap.Attempts != observedAttempts {
		t.Errorf("Attempts = %d, observed attempt bodies = %d", snap.Attempts, observedAttempts)
	}
	if snap.Retries() != observedAttempts-int64(procs*perG) {
		t.Errorf("Retries() = %d, want %d", snap.Retries(), observedAttempts-int64(procs*perG))
	}
	// Every retry stems from a failed LLX or a failed SCX (this attempt
	// body has no other Retry path), and failures cannot exceed retries.
	if snap.LLXFails+snap.SCXFails != snap.Retries() {
		t.Errorf("LLXFails %d + SCXFails %d != Retries %d",
			snap.LLXFails, snap.SCXFails, snap.Retries())
	}
	// All increments landed: the record's final value is the total op count.
	if got := r.Word(0); got != uint64(procs*perG) {
		t.Errorf("final value = %d, want %d", got, procs*perG)
	}
}

// TestRunFinalizedAbortsInsteadOfSpinning pins the finalized-spin guard: an
// attempt body that hard-codes a finalized record (instead of re-searching)
// must crash the operation with a diagnosis, not spin forever.
func TestRunFinalizedAbortsInsteadOfSpinning(t *testing.T) {
	// Build a finalized record: an SCX over (a, b) finalizing b.
	setup := core.NewProcess()
	a := newWords(0)
	b := newWords(0)
	if _, st := llx(setup, a); st != core.LLXOK {
		t.Fatal("setup LLX(a) failed")
	}
	if _, st := llx(setup, b); st != core.LLXOK {
		t.Fatal("setup LLX(b) failed")
	}
	if !setup.SCXWord([]*core.Record{a, b}, []*core.Record{b}, a.WordField(0), 1) {
		t.Fatal("setup finalizing SCX failed")
	}
	if !b.Finalized() {
		t.Fatal("b not finalized")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned instead of aborting on a pinned finalized record")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "finalized") {
			t.Fatalf("panic = %v, want the finalized-spin diagnosis", r)
		}
	}()
	h := core.NewHandle()
	template.Run(h, nil, nil, func(c *template.Ctx) (struct{}, template.Action) {
		// Deliberately broken attempt: always retries the same record.
		if _, st := c.LLXF(b); st == core.LLXOK {
			return struct{}{}, template.Done
		}
		return struct{}{}, template.Retry
	})
}

// TestRunFinalizedRecoversWhenReadSetChanges is the guard's complement: an
// attempt that adapts its read set after seeing Finalized (as every real
// structure's re-search does) must complete normally.
func TestRunFinalizedRecoversWhenReadSetChanges(t *testing.T) {
	setup := core.NewProcess()
	a := newWords(0)
	b := newWords(0)
	live := newWords(10)
	if _, st := llx(setup, a); st != core.LLXOK {
		t.Fatal("setup LLX(a) failed")
	}
	if _, st := llx(setup, b); st != core.LLXOK {
		t.Fatal("setup LLX(b) failed")
	}
	if !setup.SCXWord([]*core.Record{a, b}, []*core.Record{b}, a.WordField(0), 1) {
		t.Fatal("setup finalizing SCX failed")
	}

	h := core.NewHandle()
	var st template.OpStats
	tries := 0
	got := template.Run(h, nil, &st, func(c *template.Ctx) (int, template.Action) {
		tries++
		target := b // first try lands on the finalized record...
		if tries > 1 {
			target = live // ...then the "search" finds the live one
		}
		snap, s := c.LLXF(target)
		if s != core.LLXOK {
			return 0, template.Retry
		}
		if c.SCXWord([]*core.Record{target}, nil, target.WordField(0), snap.Word(0)+1) {
			return int(snap.Word(0)) + 1, template.Done
		}
		return 0, template.Retry
	})
	if got != 11 {
		t.Fatalf("Run = %d, want 11", got)
	}
	if snap := st.Snapshot(); snap.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", snap.Attempts)
	}
}

// TestRunFinalizedAfterContentionIsNotPinned is the guard's regression
// test for a legitimate interleaving (the queue's dequeue hits it): attempt
// 1 links [entry, x] with both LLXs OK and its SCX fails because a
// concurrent SCX changed another field of entry; attempt 2 links the same
// [entry, x] but a concurrent operation finalizes x (and moves entry past
// it) between the two LLXs. The read sets match and attempt 2 saw
// LLXFinalized, yet x was not finalized in attempt 1, so the operation is
// not pinned: attempt 3 re-reads entry and must complete. The concurrent
// operations run on a second Process inside the attempt body, which makes
// the interleaving deterministic.
func TestRunFinalizedAfterContentionIsNotPinned(t *testing.T) {
	// entry: word 0 a version, ptr 0 the current target record.
	entry := core.NewTypedRecord(1, 1)
	x, y := newWords(0), newWords(10)
	entry.SetPtr(0, unsafe.Pointer(x))
	other := core.NewProcess()

	h := core.NewHandle()
	defer h.Release()
	var st template.OpStats
	tries := 0
	got := template.Run(h, nil, &st, func(c *template.Ctx) (uint64, template.Action) {
		tries++
		le, s := c.LLXF(entry)
		if s != core.LLXOK {
			return 0, template.Retry
		}
		target := (*core.Record)(le.Ptr(0))
		switch tries {
		case 1: // bump entry's version; entry still designates x
			oe := mustLLX(t, other, entry)
			if !other.SCXWord([]*core.Record{entry}, nil, entry.WordField(0), oe.Word(0)+1) {
				t.Fatal("interfering version bump failed")
			}
		case 2: // finalize x and swing entry to y
			mustLLX(t, other, entry)
			mustLLX(t, other, x)
			if !other.SCXPtr([]*core.Record{entry, x}, []*core.Record{x},
				entry.PtrField(0), unsafe.Pointer(y)) {
				t.Fatal("interfering finalize failed")
			}
		}
		lt, s := c.LLXF(target)
		if s != core.LLXOK {
			return 0, template.Retry
		}
		if c.SCXWord([]*core.Record{entry, target}, nil, target.WordField(0), lt.Word(0)+1) {
			return lt.Word(0) + 1, template.Done
		}
		return 0, template.Retry
	})
	if got != 11 {
		t.Fatalf("Run = %d, want 11 (y incremented)", got)
	}
	if snap := st.Snapshot(); snap.Attempts != 3 || snap.LLXFails != 0 || snap.SCXFails != 1 {
		t.Fatalf("counters = %+v, want 3 attempts with 1 SCX failure", snap)
	}
}

// TestRunVLXPath pins the read-only commit: a VLX-validated observation
// completes the operation without an SCX.
func TestRunVLXPath(t *testing.T) {
	h := core.NewHandle()
	a := newWords(1)
	b := newWords(2)
	sum := template.Run(h, nil, nil, func(c *template.Ctx) (int, template.Action) {
		sa, st := c.LLXF(a)
		if st != core.LLXOK {
			return 0, template.Retry
		}
		sb, st := c.LLXF(b)
		if st != core.LLXOK {
			return 0, template.Retry
		}
		if !c.VLX([]*core.Record{a, b}) {
			return 0, template.Retry
		}
		return int(sa.Word(0) + sb.Word(0)), template.Done
	})
	if sum != 3 {
		t.Fatalf("validated sum = %d, want 3", sum)
	}
}

// TestPoliciesCompleteUnderContention runs the same contended increment
// workload under each retry policy; all of them must preserve correctness
// (the policies only shape waiting, never semantics).
func TestPoliciesCompleteUnderContention(t *testing.T) {
	policies := map[string]template.Policy{
		"immediate":     template.Immediate(),
		"nil":           nil,
		"cappedBackoff": template.CappedBackoff(4, 256),
		"spinThenYield": template.SpinThenYield(16),
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			const procs = 4
			const perG = 500
			r := newWords(0)
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := core.NewHandle()
					for i := 0; i < perG; i++ {
						template.Run(h, pol, nil, func(c *template.Ctx) (struct{}, template.Action) {
							snap, s := c.LLXF(r)
							if s != core.LLXOK {
								return struct{}{}, template.Retry
							}
							if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
								return struct{}{}, template.Done
							}
							return struct{}{}, template.Retry
						})
					}
				}()
			}
			wg.Wait()
			if got := r.Word(0); got != uint64(procs*perG) {
				t.Fatalf("final value = %d, want %d", got, procs*perG)
			}
		})
	}
}

// TestCtxSnapshotsStayLiveWithinAttempt pins the buffer discipline: several
// snapshots taken in one attempt must all remain readable until the attempt
// ends (each LLX gets its own engine-owned buffer).
func TestCtxSnapshotsStayLiveWithinAttempt(t *testing.T) {
	h := core.NewHandle()
	recs := make([]*core.Record, 4)
	for i := range recs {
		recs[i] = newWords(uint64(i), uint64(i*10))
	}
	ok := template.Run(h, nil, nil, func(c *template.Ctx) (bool, template.Action) {
		snaps := make([]*core.Fields, len(recs))
		for i, r := range recs {
			s, st := c.LLXF(r)
			if st != core.LLXOK {
				return false, template.Retry
			}
			snaps[i] = s
		}
		for i, s := range snaps {
			if s.Word(0) != uint64(i) || s.Word(1) != uint64(i*10) {
				t.Errorf("snapshot %d = [%d %d], want [%d %d]", i, s.Word(0), s.Word(1), i, i*10)
			}
		}
		return true, template.Done
	})
	if !ok {
		t.Fatal("Run failed")
	}
}

// TestCountersSnapshotArithmetic covers the Counters helpers.
func TestCountersSnapshotArithmetic(t *testing.T) {
	a := template.Counters{Ops: 10, Attempts: 15, LLXFails: 2, SCXFails: 3}
	b := template.Counters{Ops: 5, Attempts: 5}
	sum := a.Add(b)
	if sum.Ops != 15 || sum.Attempts != 20 || sum.LLXFails != 2 || sum.SCXFails != 3 {
		t.Fatalf("Add = %+v", sum)
	}
	if got := sum.Retries(); got != 5 {
		t.Fatalf("Retries = %d, want 5", got)
	}
	if got := a.SCXFailureRate(); got != 0.2 {
		t.Fatalf("SCXFailureRate = %v, want 0.2", got)
	}
	if got := (template.Counters{}).SCXFailureRate(); got != 0 {
		t.Fatalf("empty SCXFailureRate = %v, want 0", got)
	}
}

// TestOpStatsReset covers Reset between experiment phases.
func TestOpStatsReset(t *testing.T) {
	h := core.NewHandle()
	r := newWords(0)
	var st template.OpStats
	for i := 0; i < 3; i++ {
		template.Run(h, nil, &st, func(c *template.Ctx) (struct{}, template.Action) {
			snap, s := c.LLXF(r)
			if s != core.LLXOK {
				return struct{}{}, template.Retry
			}
			if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
				return struct{}{}, template.Done
			}
			return struct{}{}, template.Retry
		})
	}
	if snap := st.Snapshot(); snap.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", snap.Ops)
	}
	st.Reset()
	if snap := st.Snapshot(); snap != (template.Counters{}) {
		t.Fatalf("after Reset: %+v", snap)
	}
}
