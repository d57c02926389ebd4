package core_test

import (
	"fmt"
	"testing"

	"pragmaprim/internal/core"
)

// TestStallMatrix stalls the SCX owner at every step of the Help routine in
// turn — the systematic version of the paper's crash model — and verifies
// that a single helping LLX drives the operation to the identical final
// state every time: field updated once, R finalized, descriptor Committed,
// owner still reporting success on resumption.
func TestStallMatrix(t *testing.T) {
	stallPoints := []struct {
		kind core.StepKind
		// match narrows multi-record steps to a single deterministic site
		// (e.g. the freezing CAS on the second record).
		matchSecondRecord bool
	}{
		{core.StepFreezingCAS, true},
		{core.StepFrozen, false},
		{core.StepMark, false},
		{core.StepUpdateCAS, false},
		{core.StepCommit, false},
	}

	for _, sp := range stallPoints {
		t.Run(fmt.Sprintf("stallAt%v", sp.kind), func(t *testing.T) {
			dst := newWords(1) // old value 1
			victim := newWords(7)

			var match func(k core.StepKind, u *core.SCXRecord, r *core.Record) bool
			if sp.matchSecondRecord {
				match = func(k core.StepKind, _ *core.SCXRecord, r *core.Record) bool {
					return k == sp.kind && r == victim
				}
			} else {
				match = func(k core.StepKind, _ *core.SCXRecord, _ *core.Record) bool {
					return k == sp.kind
				}
			}
			s := newStall(t, match)

			owner := core.NewProcess()
			mustLLX(t, owner, dst)
			mustLLX(t, owner, victim)

			done := make(chan bool)
			go func() {
				done <- owner.SCXWord([]*core.Record{dst, victim},
					[]*core.Record{victim}, dst.WordField(0), 2) // new value 2
			}()
			u := s.wait(t)

			// One helping LLX on the frozen dst must complete the whole
			// operation, whatever step the owner stalled at.
			helper := core.NewProcess()
			_, st := llx(helper, dst)
			if st == core.LLXOK {
				t.Fatalf("LLX on record frozen for an in-progress SCX returned OK")
			}
			if got := u.State(); got != core.StateCommitted {
				t.Fatalf("state after helping = %v, want Committed", got)
			}
			if got := dst.Word(0); got != 2 {
				t.Fatalf("dst = %v, want 2", got)
			}
			if !victim.Finalized() {
				t.Fatal("victim not finalized after helping")
			}
			if _, st := llx(helper, victim); st != core.LLXFinalized {
				t.Fatalf("LLX(victim) = %v, want Finalized", st)
			}

			// The owner resumes past its stalled step and still reports
			// success; the field is not applied twice.
			close(s.release)
			if !<-done {
				t.Fatal("owner SCX reported failure after being helped")
			}
			if got := dst.Word(0); got != 2 {
				t.Fatalf("dst after owner resumed = %v (double apply?)", got)
			}
			totalUpdates := owner.Metrics.UpdateCASSuccesses +
				helper.Metrics.UpdateCASSuccesses
			if totalUpdates != 1 {
				t.Fatalf("update CAS successes = %d, want exactly 1", totalUpdates)
			}
		})
	}
}

// TestStallMatrixSurvivorThroughput stalls an owner at each step and checks
// other processes can still complete a batch of unrelated and related
// operations (the paper's non-blocking guarantee, P2/P4).
func TestStallMatrixSurvivorThroughput(t *testing.T) {
	for _, kind := range []core.StepKind{core.StepFrozen, core.StepMark, core.StepUpdateCAS, core.StepCommit} {
		t.Run(fmt.Sprintf("stallAt%v", kind), func(t *testing.T) {
			shared := newWords(0)
			victim := newWords(0)

			s := newStall(t, func(k core.StepKind, _ *core.SCXRecord, _ *core.Record) bool {
				return k == kind
			})

			// The owner's SCX finalizes victim so that every stall point,
			// including the mark step, exists on its path.
			owner := core.NewProcess()
			mustLLX(t, owner, shared)
			mustLLX(t, owner, victim)
			done := make(chan bool)
			go func() {
				done <- owner.SCXWord([]*core.Record{shared, victim},
					[]*core.Record{victim}, shared.WordField(0), 1)
			}()
			s.wait(t)

			// A survivor must complete 1000 increments on the SAME record,
			// helping the stalled SCX out of the way first.
			p := core.NewProcess()
			completed := 0
			for completed < 1000 {
				snap, st := llx(p, shared)
				if st != core.LLXOK {
					continue
				}
				if p.SCXWord([]*core.Record{shared}, nil, shared.WordField(0), snap.Word(0)+1) {
					completed++
				}
			}

			close(s.release)
			if !<-done {
				t.Fatal("stalled owner reported failure")
			}
			// The helped SCX wrote 1 before the survivor's 1000 increments,
			// and the owner's late update CAS (expecting 0) did not land.
			if got := shared.Word(0); got != 1001 {
				t.Fatalf("final value = %v, want 1001", got)
			}
		})
	}
}
