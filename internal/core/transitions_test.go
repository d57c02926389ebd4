package core_test

import (
	"fmt"
	"sync"
	"testing"

	"pragmaprim/internal/core"
)

// pairState is an observed (state, allFrozen) pair of an SCX-record,
// corresponding to a vertex of the paper's Figure 2.
type pairState struct {
	state  core.State
	frozen bool
}

// validPair reports whether p is one of the four vertices of Figure 2:
// [InProgress,False], [InProgress,True], [Committed,True], [Aborted,False].
// Note [Committed,False] and [Aborted,True] are unreachable (Lemmas 21, 27).
func validPair(p pairState) bool {
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

// figure2Edge reports whether the transition a -> b is an edge (or a
// reflexive stay, or a reachable skip) of Figure 2's DAG:
//
//	[IP,F] -> [IP,T] -> [C,T]
//	[IP,F] -> [A,F]
func figure2Edge(a, b pairState) bool {
	rank := func(p pairState) int {
		switch {
		case p.state == core.StateInProgress && !p.frozen:
			return 0
		case p.state == core.StateInProgress && p.frozen:
			return 1
		case p.state == core.StateCommitted:
			return 2
		default: // Aborted
			return 3
		}
	}
	ra, rb := rank(a), rank(b)
	if ra == rb {
		return true
	}
	if ra == 3 || rb == 3 {
		// Aborted is terminal and reachable only from [IP,F].
		return ra == 0 && rb == 3
	}
	return ra < rb
}

// sampler records (state, allFrozen) pairs per SCX-record, reading state
// before allFrozen so that every sampled pair is a vertex of Figure 2 (the
// frozen step precedes the commit step, and allFrozen is never unset). The
// pair is read under the lock, so each record's samples are appended in the
// real-time order they were read, even when several helpers sample it.
type sampler struct {
	mu      sync.Mutex
	samples map[*core.SCXRecord][]pairState
}

func (s *sampler) hook(_ core.StepKind, u *core.SCXRecord, _ *core.Record) {
	s.mu.Lock()
	p := pairState{state: u.State(), frozen: u.AllFrozen()}
	s.samples[u] = append(s.samples[u], p)
	s.mu.Unlock()
}

// TestTransitionsUncontendedCommit asserts the exact Figure 2 path of a
// successful SCX: [IP,F] ... [IP,T] at the update CAS, [C,T] after commit.
func TestTransitionsUncontendedCommit(t *testing.T) {
	s := &sampler{samples: make(map[*core.SCXRecord][]pairState)}
	core.SetStepHook(s.hook)
	defer core.SetStepHook(nil)

	p := core.NewProcess()
	a := newWords(1)
	b := newWords(2)
	mustLLX(t, p, a)
	mustLLX(t, p, b)
	if !p.SCXWord([]*core.Record{a, b}, []*core.Record{b}, a.WordField(0), 9) {
		t.Fatal("SCX failed")
	}

	if len(s.samples) != 1 {
		t.Fatalf("sampled %d SCX-records, want 1", len(s.samples))
	}
	for u, seq := range s.samples {
		// Steps: freeze a, freeze b, frozen, mark b, updateCAS, commit.
		want := []pairState{
			{core.StateInProgress, false}, // before freezing CAS on a
			{core.StateInProgress, false}, // before freezing CAS on b
			{core.StateInProgress, false}, // before frozen step
			{core.StateInProgress, true},  // before mark step
			{core.StateInProgress, true},  // before update CAS
			{core.StateInProgress, true},  // before commit step
		}
		if fmt.Sprint(seq) != fmt.Sprint(want) {
			t.Errorf("transition samples = %v, want %v", seq, want)
		}
		if got := u.State(); got != core.StateCommitted {
			t.Errorf("final state = %v, want Committed", got)
		}
		if !u.AllFrozen() {
			t.Error("final allFrozen = false, want true")
		}
	}
}

// TestTransitionsAbortPath asserts the exact Figure 2 path of a failed SCX:
// [IP,F] -> [A,F], with allFrozen never set.
func TestTransitionsAbortPath(t *testing.T) {
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	r := newWords(1)
	mustLLX(t, p1, r)
	mustLLX(t, p2, r)
	if !p2.SCXWord([]*core.Record{r}, nil, r.WordField(0), 2) {
		t.Fatal("p2 SCX failed")
	}

	s := &sampler{samples: make(map[*core.SCXRecord][]pairState)}
	core.SetStepHook(s.hook)
	defer core.SetStepHook(nil)

	if p1.SCXWord([]*core.Record{r}, nil, r.WordField(0), 3) {
		t.Fatal("doomed SCX succeeded")
	}
	if len(s.samples) != 1 {
		t.Fatalf("sampled %d SCX-records, want 1", len(s.samples))
	}
	for u, seq := range s.samples {
		want := []pairState{
			{core.StateInProgress, false}, // before freezing CAS
			{core.StateInProgress, false}, // before frozen check
			{core.StateInProgress, false}, // before abort step
		}
		if fmt.Sprint(seq) != fmt.Sprint(want) {
			t.Errorf("transition samples = %v, want %v", seq, want)
		}
		if got := u.State(); got != core.StateAborted {
			t.Errorf("final state = %v, want Aborted", got)
		}
		if u.AllFrozen() {
			t.Error("aborted SCX has allFrozen set (violates Lemma 21)")
		}
	}
}

// TestTransitionsConcurrentWorkload runs a contended workload and asserts
// every sampled (state, allFrozen) pair is a vertex of Figure 2 and every
// per-record sample sequence respects its DAG (exp E6).
func TestTransitionsConcurrentWorkload(t *testing.T) {
	s := &sampler{samples: make(map[*core.SCXRecord][]pairState)}
	core.SetStepHook(s.hook)
	defer core.SetStepHook(nil)

	const procs = 4
	const iters = 200
	recs := []*core.Record{
		newWords(0),
		newWords(0),
		newWords(0),
	}

	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			p := core.NewProcess()
			for i := 0; i < iters; i++ {
				a := recs[(pid+i)%len(recs)]
				b := recs[(pid+i+1)%len(recs)]
				sa, st := llx(p, a)
				if st != core.LLXOK {
					continue
				}
				if _, st := llx(p, b); st != core.LLXOK {
					continue
				}
				p.SCXWord([]*core.Record{a, b}, nil, a.WordField(0), sa.Word(0)+1)
			}
		}(pid)
	}
	wg.Wait()

	if len(s.samples) == 0 {
		t.Fatal("no SCX-records sampled")
	}
	for u, seq := range s.samples {
		for i, p := range seq {
			if !validPair(p) {
				t.Fatalf("invalid (state,allFrozen) pair %+v sampled", p)
			}
			if i > 0 && !figure2Edge(seq[i-1], p) {
				t.Fatalf("illegal transition %+v -> %+v for %p", seq[i-1], p, u)
			}
		}
		final := pairState{state: u.State(), frozen: u.AllFrozen()}
		if !validPair(final) {
			t.Fatalf("invalid final pair %+v", final)
		}
		if final.state == core.StateInProgress {
			t.Fatalf("SCX-record left InProgress after quiescence")
		}
	}
}

// TestMarkedMonotonic asserts the Figure 3 property that a record's marked
// bit never resets and a finalized record stays finalized.
func TestMarkedMonotonic(t *testing.T) {
	p := core.NewProcess()
	r := newWords(0)
	other := newWords(0)
	mustLLX(t, p, other)
	mustLLX(t, p, r)
	if !p.SCXWord([]*core.Record{other, r}, []*core.Record{r}, other.WordField(0), 1) {
		t.Fatal("SCX failed")
	}
	for i := 0; i < 10; i++ {
		if !r.Finalized() {
			t.Fatal("finalized record reverted")
		}
		q := core.NewProcess()
		if _, st := llx(q, r); st != core.LLXFinalized {
			t.Fatalf("LLX = %v, want Finalized", st)
		}
	}
}
