package trie_test

import (
	"sync/atomic"
	"testing"
	"time"

	"pragmaprim/internal/core"
	"pragmaprim/internal/trie"
)

// stallFirstUpdateCAS installs a step hook that parks the first process to
// reach an update CAS after arm is called, until the returned release runs.
func stallFirstUpdateCAS(t *testing.T) (arm func(), stalled <-chan struct{}, release func()) {
	t.Helper()
	var armed atomic.Bool
	st := make(chan struct{})
	rel := make(chan struct{})
	core.SetStepHook(func(k core.StepKind, _ *core.SCXRecord, _ *core.Record) {
		if k == core.StepUpdateCAS && armed.CompareAndSwap(true, false) {
			close(st)
			<-rel
		}
	})
	t.Cleanup(func() { core.SetStepHook(nil) })
	return func() { armed.Store(true) }, st, func() { close(rel) }
}

func waitStalled(t *testing.T, stalled <-chan struct{}) {
	t.Helper()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the update never reached its update CAS")
	}
}

// TestLateHelperCannotRefillEmptiedTrie replays the Section 4.1 hazard on
// the root: "put 5" into an empty trie stalls at its update CAS (root: empty
// → leaf 5) after its frozen step; a second put of 5 helps it commit and
// replaces the leaf, and a delete of 5 empties the trie again. If the
// delete wrote back the root's first value, the stalled CAS would succeed
// once released and re-insert the deleted, finalized leaf. The delete
// installs a fresh empty sentinel instead, so the late CAS fails.
func TestLateHelperCannotRefillEmptiedTrie(t *testing.T) {
	tr := trie.New[string]()
	arm, stalled, release := stallFirstUpdateCAS(t)

	arm()
	put := make(chan struct{})
	go func() {
		defer close(put)
		tr.Put(5, "stalled")
	}()
	waitStalled(t, stalled)

	// This put's LLX of the root finds the stalled put in progress and
	// helps it commit; it then replaces the leaf.
	if tr.Put(5, "helper") {
		t.Fatal("second Put(5) reported a fresh insert")
	}
	if _, ok := tr.Delete(5); !ok {
		t.Fatal("Delete(5) found nothing")
	}
	release()
	<-put

	if v, ok := tr.Get(5); ok {
		t.Fatalf("Get(5) = %q after delete: the late update CAS re-inserted a deleted leaf", v)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLateHelperCannotRestoreReplacedSibling is the same hazard one level
// down: "put 1" splices a router above leaf 0 (root: leaf 0 → router) and
// stalls at its update CAS; a put of 1 helps it and replaces leaf 1, and a
// delete of 1 removes the router. If the delete swung the root back to
// leaf 0, the value it held before the splice, the stalled CAS would
// re-install the finalized router. The delete installs a fresh copy of
// leaf 0 instead.
func TestLateHelperCannotRestoreReplacedSibling(t *testing.T) {
	tr := trie.New[string]()
	tr.Put(0, "zero")
	arm, stalled, release := stallFirstUpdateCAS(t)

	arm()
	put := make(chan struct{})
	go func() {
		defer close(put)
		tr.Put(1, "stalled")
	}()
	waitStalled(t, stalled)

	// Splice parent is the root, whose LLX finds the stalled put in
	// progress; after helping, this put replaces leaf 1.
	if tr.Put(1, "helper") {
		t.Fatal("second Put(1) reported a fresh insert")
	}
	if v, ok := tr.Delete(1); !ok || v != "helper" {
		t.Fatalf("Delete(1) = (%q, %v), want (helper, true)", v, ok)
	}
	release()
	<-put

	if v, ok := tr.Get(1); ok {
		t.Fatalf("Get(1) = %q after delete: the late update CAS restored a removed router", v)
	}
	if keys := tr.Keys(); len(keys) != 1 || keys[0] != 0 {
		t.Fatalf("Keys = %v, want [0]", keys)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
