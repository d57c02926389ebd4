package core_test

import (
	"testing"

	"pragmaprim/internal/core"
)

// TestSCXWithRepeatedRecordInV covers the paper's Section 4.1 remark that,
// while a structure is changing, a V sequence "may have repeated elements":
// the second freezing CAS on the repeated record fails but observes
// r.info == scxPtr and proceeds, so the SCX still succeeds.
func TestSCXWithRepeatedRecordInV(t *testing.T) {
	p := core.NewProcess()
	a := newWords(1)
	b := newWords(2)
	mustLLX(t, p, a)
	mustLLX(t, p, b)
	if !p.SCXWord([]*core.Record{a, b, a}, nil, a.WordField(0), 10) {
		t.Fatal("SCX with repeated record failed")
	}
	if got := a.Word(0); got != 10 {
		t.Errorf("a = %v, want 10", got)
	}
	// Exactly 2 distinct freezes succeeded; the repeat was a benign no-op.
	if got := p.Metrics.FreezingCASSuccesses; got != 2 {
		t.Errorf("freezing successes = %d, want 2", got)
	}
	if got := p.Metrics.FreezingCASAttempts; got != 3 {
		t.Errorf("freezing attempts = %d, want 3", got)
	}
}

// TestSCXWithRepeatedRecordInR: finalizing a repeated record marks it twice,
// harmlessly.
func TestSCXWithRepeatedRecordInR(t *testing.T) {
	p := core.NewProcess()
	a := newWords(1)
	b := newWords(2)
	mustLLX(t, p, a)
	mustLLX(t, p, b)
	if !p.SCXWord([]*core.Record{a, b}, []*core.Record{b, b}, a.WordField(0), 10) {
		t.Fatal("SCX with repeated finalizee failed")
	}
	if !b.Finalized() {
		t.Error("b not finalized")
	}
	if a.Finalized() {
		t.Error("a finalized")
	}
}

// TestReadsOfFinalizedRecordStayStable: plain reads of a finalized record
// keep returning the frozen-in values forever.
func TestReadsOfFinalizedRecordStayStable(t *testing.T) {
	p := core.NewProcess()
	dst := newWords(0)
	x := fresh()
	r := newPair(t, 42, x)
	mustLLX(t, p, dst)
	mustLLX(t, p, r)
	if !p.SCXWord([]*core.Record{dst, r}, []*core.Record{r}, dst.WordField(0), 1) {
		t.Fatal("SCX failed")
	}
	for i := 0; i < 5; i++ {
		if got := r.Word(0); got != 42 {
			t.Fatalf("Word(0) = %v", got)
		}
		if got := r.Ptr(0); got != x {
			t.Fatalf("Ptr(0) = %v", got)
		}
	}
}

// TestManySequentialSCXsReuseProcess: a single Process performing thousands
// of transactions must not leak table state between them.
func TestManySequentialSCXsReuseProcess(t *testing.T) {
	p := core.NewProcess()
	recs := make([]*core.Record, 8)
	for i := range recs {
		recs[i] = newWords(0)
	}
	for i := 0; i < 5000; i++ {
		a := recs[i%len(recs)]
		b := recs[(i+3)%len(recs)]
		if a == b {
			continue
		}
		mustLLX(t, p, a)
		mustLLX(t, p, b)
		if !p.SCXWord([]*core.Record{a, b}, nil, a.WordField(0), uint64(i)+1) {
			t.Fatalf("iteration %d: SCX failed", i)
		}
		if p.HasLink(a) || p.HasLink(b) {
			t.Fatalf("iteration %d: links leaked", i)
		}
	}
}
