package stack_test

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pragmaprim/internal/core"
	"pragmaprim/internal/stack"
)

// TestLateHelperCannotResurrectPoppedCell replays the Section 4.1 hazard
// deterministically. "push 2" stalls at its update CAS (top: cell 1 → cell
// 2) after its frozen step; a pop helps it commit and then pops 2. If the
// pop swung top back to cell 1 — a value top held before — the stalled
// CAS would succeed once released and push the popped, finalized cell 2
// back onto the stack. The pop installs a fresh copy of cell 1 instead, so
// the late CAS fails.
func TestLateHelperCannotResurrectPoppedCell(t *testing.T) {
	s := stack.New[int]()
	s.Push(1)

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
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		s.Push(2)
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("push 2 never reached its update CAS")
	}

	// The pop's LLX of the entry finds push 2 in progress, helps it commit,
	// and then pops the cell it pushed.
	if v, ok := s.Pop(); !ok || v != 2 {
		t.Fatalf("Pop = (%d, %v), want (2, true)", v, ok)
	}
	close(release)
	<-pushed

	if got := s.Items(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Items = %v after popping 2, want [1]: the late update CAS resurrected a popped cell", got)
	}
	if v, ok := s.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop on a drained stack returned an element")
	}
}
