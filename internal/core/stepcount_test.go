package core_test

import (
	"fmt"
	"testing"

	"pragmaprim/internal/core"
)

// makeChain builds n two-word records.
func makeChain(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = newWords(uint64(i), 0)
	}
	return recs
}

// TestStepCountUncontendedSCX reproduces the paper's central cost claim
// (Section 1): "If an SCX encounters no contention with any other SCX and
// finalizes f Data-records, then a total of k+1 CAS steps and f+2 writes are
// used for the SCX and the k LLXs on which it depends."
func TestStepCountUncontendedSCX(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for f := 0; f <= k; f++ {
			t.Run(fmt.Sprintf("k=%d/f=%d", k, f), func(t *testing.T) {
				p := core.NewProcess()
				recs := makeChain(k)
				for _, r := range recs {
					mustLLX(t, p, r)
				}
				// Finalize the last f records; fld must belong to a
				// non-finalized record when f < k, else any record in V.
				rset := recs[k-f:]
				p.Metrics.Reset()
				if !p.SCXWord(recs, rset, recs[0].WordField(1), 1) {
					t.Fatal("uncontended SCX failed")
				}
				if got, want := p.Metrics.CASSteps(), int64(k+1); got != want {
					t.Errorf("CAS steps = %d, want k+1 = %d", got, want)
				}
				if got, want := p.Metrics.WriteSteps(), int64(f+2); got != want {
					t.Errorf("write steps = %d, want f+2 = %d", got, want)
				}
				if p.Metrics.FreezingCASSuccesses != int64(k) {
					t.Errorf("freezing CAS successes = %d, want %d",
						p.Metrics.FreezingCASSuccesses, k)
				}
				if p.Metrics.UpdateCASSuccesses != 1 {
					t.Errorf("update CAS successes = %d, want 1",
						p.Metrics.UpdateCASSuccesses)
				}
				if p.Metrics.AbortSteps != 0 {
					t.Errorf("abort steps = %d, want 0", p.Metrics.AbortSteps)
				}
			})
		}
	}
}

// TestStepCountVLX reproduces the claim that "a VLX on k Data-records only
// requires reading k words of memory" (Section 1).
func TestStepCountVLX(t *testing.T) {
	for k := 1; k <= 8; k++ {
		p := core.NewProcess()
		recs := makeChain(k)
		for _, r := range recs {
			mustLLX(t, p, r)
		}
		p.Metrics.Reset()
		if !p.VLX(recs) {
			t.Fatalf("k=%d: VLX failed", k)
		}
		if got := p.Metrics.VLXReads; got != int64(k) {
			t.Errorf("k=%d: VLX reads = %d, want %d", k, got, k)
		}
		if got := p.Metrics.CASSteps(); got != 0 {
			t.Errorf("k=%d: VLX performed %d CAS steps, want 0", k, got)
		}
	}
}

// TestLLXPerformsNoCAS verifies LLX itself is CAS-free when it does not help.
func TestLLXPerformsNoCAS(t *testing.T) {
	p := core.NewProcess()
	r := newWords(1, 2)
	p.Metrics.Reset()
	mustLLX(t, p, r)
	if got := p.Metrics.CASSteps(); got != 0 {
		t.Errorf("LLX performed %d CAS steps, want 0", got)
	}
	if got := p.Metrics.WriteSteps(); got != 0 {
		t.Errorf("LLX performed %d write steps, want 0", got)
	}
}

// TestStepCountFailedSCX checks the cheap-failure property: an SCX that loses
// on its first freeze performs 1 CAS and 1 abort write.
func TestStepCountFailedSCX(t *testing.T) {
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	r := newWords(0)
	mustLLX(t, p1, r)
	mustLLX(t, p2, r)
	if !p2.SCXWord([]*core.Record{r}, nil, r.WordField(0), 1) {
		t.Fatal("p2 SCX failed")
	}
	p1.Metrics.Reset()
	if p1.SCXWord([]*core.Record{r}, nil, r.WordField(0), 2) {
		t.Fatal("doomed SCX succeeded")
	}
	if got := p1.Metrics.CASSteps(); got != 1 {
		t.Errorf("failed SCX CAS steps = %d, want 1", got)
	}
	if got := p1.Metrics.AbortSteps; got != 1 {
		t.Errorf("failed SCX abort steps = %d, want 1", got)
	}
	if got := p1.Metrics.UpdateCASAttempts; got != 0 {
		t.Errorf("failed SCX attempted %d update CASes, want 0", got)
	}
}

// TestMetricsAddAndReset covers the aggregation helpers used by the harness.
func TestMetricsAddAndReset(t *testing.T) {
	var a, b core.Metrics
	a.FreezingCASAttempts = 3
	a.UpdateCASAttempts = 1
	a.MarkSteps = 2
	b.FreezingCASAttempts = 4
	b.CommitSteps = 5
	b.VLXReads = 6

	var sum core.Metrics
	sum.Add(&a)
	sum.Add(&b)
	if sum.FreezingCASAttempts != 7 {
		t.Errorf("FreezingCASAttempts = %d, want 7", sum.FreezingCASAttempts)
	}
	if sum.CASSteps() != 8 {
		t.Errorf("CASSteps = %d, want 8", sum.CASSteps())
	}
	if sum.WriteSteps() != 7 {
		t.Errorf("WriteSteps = %d, want 7", sum.WriteSteps())
	}
	if sum.VLXReads != 6 {
		t.Errorf("VLXReads = %d, want 6", sum.VLXReads)
	}
	sum.Reset()
	if sum != (core.Metrics{}) {
		t.Errorf("Reset left %+v", sum)
	}
}
