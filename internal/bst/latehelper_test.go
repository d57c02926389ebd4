package bst_test

import (
	"sync/atomic"
	"testing"
	"time"

	"pragmaprim/internal/bst"
	"pragmaprim/internal/core"
)

// TestLateHelperCannotRestoreReplacedSibling replays the Section 4.1
// hazard on a delete: "put 5" splices a router above the ∞₁ sentinel leaf
// (root.left: ∞₁ leaf → router) and stalls at its update CAS; a second put
// of 5 helps it commit and replaces leaf 5, and a delete of 5 removes the
// router. If the delete swung root.left back to the ∞₁ leaf, the value it
// held before the splice, the stalled CAS would succeed once released and
// re-install the finalized router with its deleted leaf. The delete
// installs a fresh copy of the sibling instead, so the late CAS fails.
func TestLateHelperCannotRestoreReplacedSibling(t *testing.T) {
	tr := bst.New[int, string]()

	var armed atomic.Bool
	stalled := make(chan struct{})
	release := make(chan struct{})
	core.SetStepHook(func(k core.StepKind, _ *core.SCXRecord, _ *core.Record) {
		if k == core.StepUpdateCAS && armed.CompareAndSwap(true, false) {
			close(stalled)
			<-release
		}
	})
	defer core.SetStepHook(nil)

	armed.Store(true)
	put := make(chan struct{})
	go func() {
		defer close(put)
		tr.Put(5, "stalled")
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("put 5 never reached its update CAS")
	}

	// This put's LLX of the root finds the stalled splice in progress and
	// helps it commit; it then replaces leaf 5.
	if tr.Put(5, "helper") {
		t.Fatal("second Put(5) reported a fresh insert")
	}
	if v, ok := tr.Delete(5); !ok || v != "helper" {
		t.Fatalf("Delete(5) = (%q, %v), want (helper, true)", v, ok)
	}
	close(release)
	<-put

	if v, ok := tr.Get(5); ok {
		t.Fatalf("Get(5) = %q after delete: the late update CAS restored a removed router", v)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}
