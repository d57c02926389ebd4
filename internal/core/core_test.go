package core_test

import (
	"runtime"
	"testing"
	"unsafe"

	"pragmaprim/internal/core"
)

// newWords returns a record whose word fields hold vals, in order.
func newWords(vals ...uint64) *core.Record {
	r := core.NewTypedRecord(len(vals), 0)
	for i, v := range vals {
		r.SetWord(i, v)
	}
	return r
}

// newPair returns a record with one word field (0: count) and one pointer
// field (0: next), mirroring the paper's multiset node shape.
func newPair(t *testing.T, count uint64, next unsafe.Pointer) *core.Record {
	t.Helper()
	r := core.NewTypedRecord(1, 1)
	r.SetWord(0, count)
	r.SetPtr(0, next)
	return r
}

// fresh returns a pointer no field has held: the address of a new record.
func fresh() unsafe.Pointer { return unsafe.Pointer(core.NewTypedRecord(0, 0)) }

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

func TestTypedRecordInitialState(t *testing.T) {
	r := core.NewTypedRecord(3, 2)
	if got := r.NumMutable(); got != 5 {
		t.Errorf("NumMutable = %d, want 5", got)
	}
	if got := r.NumWords(); got != 3 {
		t.Errorf("NumWords = %d, want 3", got)
	}
	if got := r.NumPtrs(); got != 2 {
		t.Errorf("NumPtrs = %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		if got := r.Word(i); got != 0 {
			t.Errorf("Word(%d) = %d, want 0", i, got)
		}
	}
	for i := 0; i < 2; i++ {
		if got := r.Ptr(i); got != nil {
			t.Errorf("Ptr(%d) = %v, want nil", i, got)
		}
	}
	p := fresh()
	r.SetWord(0, 1)
	r.SetWord(1, 2)
	r.SetPtr(1, p)
	if got := r.Word(0); got != 1 {
		t.Errorf("Word(0) = %d, want 1", got)
	}
	if got := r.Word(1); got != 2 {
		t.Errorf("Word(1) = %d, want 2", got)
	}
	if got := r.Ptr(1); got != p {
		t.Errorf("Ptr(1) = %v, want %v", got, p)
	}
	if r.Finalized() {
		t.Error("fresh record reports Finalized")
	}
	if r.Frozen() {
		t.Error("fresh record reports Frozen")
	}
}

// TestRecordSize pins the embedded record's footprint: info, marked and
// the widths in one 16-byte header, four inline words, four inline
// pointers and the two spill slices. Every structure node embeds one.
func TestRecordSize(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("layout pinned for amd64, running on %s", runtime.GOARCH)
	}
	if got := unsafe.Sizeof(core.Record{}); got != 128 {
		t.Errorf("unsafe.Sizeof(core.Record{}) = %d, want 128", got)
	}
}

func TestLLXReturnsSnapshot(t *testing.T) {
	p := core.NewProcess()
	r := newPair(t, 3, nil)
	snap := mustLLX(t, p, r)
	if snap.NumWords() != 1 || snap.NumPtrs() != 1 {
		t.Fatalf("snapshot width = %d words + %d ptrs, want 1 + 1",
			snap.NumWords(), snap.NumPtrs())
	}
	if snap.Word(0) != 3 || snap.Ptr(0) != nil {
		t.Errorf("snapshot = [%d %v], want [3 nil]", snap.Word(0), snap.Ptr(0))
	}
	if !p.HasLink(r) {
		t.Error("LLX did not record a link")
	}
}

func TestSCXUpdatesField(t *testing.T) {
	p := core.NewProcess()
	r := newPair(t, 3, nil)
	mustLLX(t, p, r)
	if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), 8) {
		t.Fatal("uncontended SCX failed")
	}
	if got := r.Word(0); got != 8 {
		t.Errorf("Word(0) after SCX = %v, want 8", got)
	}
	if got := r.Ptr(0); got != nil {
		t.Errorf("Ptr(0) changed unexpectedly: %v", got)
	}
	if r.Finalized() {
		t.Error("record finalized though R was empty")
	}
	if p.HasLink(r) {
		t.Error("SCX did not consume the link")
	}
}

func TestSCXConsumesLinkEvenOnSuccess(t *testing.T) {
	p := core.NewProcess()
	r := newPair(t, 1, nil)
	mustLLX(t, p, r)
	if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), 2) {
		t.Fatal("SCX failed")
	}
	// A second SCX without a fresh LLX is a precondition violation.
	defer func() {
		if recover() == nil {
			t.Error("second SCX without LLX did not panic")
		}
	}()
	p.SCXWord([]*core.Record{r}, nil, r.WordField(0), 3)
}

func TestSCXFinalizesRecords(t *testing.T) {
	p := core.NewProcess()
	a := newPair(t, 1, nil)
	b := newPair(t, 2, nil)
	mustLLX(t, p, a)
	mustLLX(t, p, b)
	bye := fresh()
	if !p.SCXPtr([]*core.Record{a, b}, []*core.Record{b}, a.PtrField(0), bye) {
		t.Fatal("SCX failed")
	}
	if !b.Finalized() {
		t.Error("b not finalized though it was in R")
	}
	if a.Finalized() {
		t.Error("a finalized though it was not in R")
	}
	// P1: an LLX beginning after a successful finalizing SCX returns
	// Finalized.
	if _, st := llx(p, b); st != core.LLXFinalized {
		t.Errorf("LLX(finalized) = %v, want Finalized", st)
	}
	// The non-finalized record stays fully usable.
	snap := mustLLX(t, p, a)
	if snap.Ptr(0) != bye {
		t.Errorf("a.next = %v, want %v", snap.Ptr(0), bye)
	}
}

func TestSCXFailsAfterConflictingSCX(t *testing.T) {
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	r := newPair(t, 10, nil)

	mustLLX(t, p1, r)
	mustLLX(t, p2, r)
	if !p2.SCXWord([]*core.Record{r}, nil, r.WordField(0), 11) {
		t.Fatal("p2 SCX failed")
	}
	// C4: p1's SCX must fail because r changed since p1's linked LLX.
	if p1.SCXWord([]*core.Record{r}, nil, r.WordField(0), 12) {
		t.Fatal("p1 SCX succeeded despite intervening SCX")
	}
	if got := r.Word(0); got != 11 {
		t.Errorf("field = %v, want 11 (failed SCX must not write)", got)
	}
}

func TestSCXOnFinalizedRecordFails(t *testing.T) {
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	r := newPair(t, 10, nil)

	mustLLX(t, p1, r)
	mustLLX(t, p2, r)
	if !p2.SCXWord([]*core.Record{r}, []*core.Record{r}, r.WordField(0), 11) {
		t.Fatal("finalizing SCX failed")
	}
	if p1.SCXWord([]*core.Record{r}, nil, r.WordField(0), 12) {
		t.Fatal("SCX succeeded on a finalized record")
	}
	if !r.Finalized() {
		t.Error("record not finalized")
	}
}

func TestFinalizedRecordNeverChanges(t *testing.T) {
	p := core.NewProcess()
	x := fresh()
	r := newPair(t, 10, x)
	mustLLX(t, p, r)
	if !p.SCXWord([]*core.Record{r}, []*core.Record{r}, r.WordField(0), 11) {
		t.Fatal("SCX failed")
	}
	if got := r.Word(0); got != 11 {
		t.Errorf("final value = %v, want 11", got)
	}
	if got := r.Ptr(0); got != x {
		t.Errorf("untouched field = %v, want %v", got, x)
	}
	// Every later LLX observes Finalized (P1), from any process.
	for i := 0; i < 3; i++ {
		q := core.NewProcess()
		if _, st := llx(q, r); st != core.LLXFinalized {
			t.Fatalf("LLX %d = %v, want Finalized", i, st)
		}
	}
}

func TestVLXSucceedsWhenUnchanged(t *testing.T) {
	p := core.NewProcess()
	a := newPair(t, 1, nil)
	b := newPair(t, 2, nil)
	mustLLX(t, p, a)
	mustLLX(t, p, b)
	if !p.VLX([]*core.Record{a, b}) {
		t.Fatal("VLX failed on unchanged records")
	}
	// A successful VLX preserves the links: it may be repeated.
	if !p.VLX([]*core.Record{a, b}) {
		t.Fatal("repeated VLX failed")
	}
}

func TestVLXFailsAfterChange(t *testing.T) {
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	a := newPair(t, 1, nil)
	b := newPair(t, 2, nil)

	mustLLX(t, p1, a)
	mustLLX(t, p1, b)
	mustLLX(t, p2, b)
	if !p2.SCXWord([]*core.Record{b}, nil, b.WordField(0), 3) {
		t.Fatal("p2 SCX failed")
	}
	if p1.VLX([]*core.Record{a, b}) {
		t.Fatal("VLX succeeded despite an intervening SCX on b")
	}
	// An unsuccessful VLX consumes the links.
	if p1.HasLink(a) || p1.HasLink(b) {
		t.Error("failed VLX left links in place")
	}
}

func TestLLXAfterSCXSeesNewValue(t *testing.T) {
	p := core.NewProcess()
	r := newPair(t, 0, nil)
	for i := uint64(1); i <= 100; i++ {
		mustLLX(t, p, r)
		if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), i) {
			t.Fatalf("SCX %d failed", i)
		}
		snap := mustLLX(t, p, r)
		if snap.Word(0) != i {
			t.Fatalf("snapshot after SCX %d = %v", i, snap.Word(0))
		}
	}
}

func TestSCXSameValueTwiceIsABAFree(t *testing.T) {
	// The classic ABA scenario: write v, write w, write v again. An SCX
	// validates its links by the info pointer each LLX read, not by field
	// values, so a process that LLXed before the first write must still
	// observe interference. (Writing v back breaks the Section 4.1
	// distinct-value rule on purpose: that rule protects late helpers'
	// update CASes, not the creator's link validation tested here.)
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	const v, w = 1, 2
	r := newPair(t, v, nil)

	mustLLX(t, p1, r)

	for _, val := range []uint64{w, v} {
		mustLLX(t, p2, r)
		if !p2.SCXWord([]*core.Record{r}, nil, r.WordField(0), val) {
			t.Fatalf("p2 SCX(%d) failed", val)
		}
	}
	if got := r.Word(0); got != v {
		t.Fatalf("field = %v, want %d", got, v)
	}
	// p1's view is stale even though the value matches: its SCX must fail.
	if p1.SCXWord([]*core.Record{r}, nil, r.WordField(0), 3) {
		t.Fatal("ABA: stale SCX succeeded after value returned to v")
	}
}

func TestSCXMultiRecordDependsOnAll(t *testing.T) {
	p1 := core.NewProcess()
	p2 := core.NewProcess()
	a := newPair(t, 1, nil)
	b := newPair(t, 2, nil)
	c := newPair(t, 3, nil)

	mustLLX(t, p1, a)
	mustLLX(t, p1, b)
	mustLLX(t, p1, c)

	// Change only c.
	mustLLX(t, p2, c)
	if !p2.SCXWord([]*core.Record{c}, nil, c.WordField(0), 30) {
		t.Fatal("p2 SCX failed")
	}

	// p1 depends on a, b and c; the change to c must doom it.
	if p1.SCXWord([]*core.Record{a, b, c}, nil, a.WordField(0), 10) {
		t.Fatal("SCX succeeded though c changed since its linked LLX")
	}
	if got := a.Word(0); got != 1 {
		t.Errorf("a.count = %v, want 1", got)
	}
}

func TestZeroFieldRecord(t *testing.T) {
	// Records with no mutable fields (e.g. BST leaves) may appear in V and R.
	p := core.NewProcess()
	leaf := core.NewTypedRecord(0, 0)
	parent := newPair(t, 0, unsafe.Pointer(leaf))

	snap, st := llx(p, leaf)
	if st != core.LLXOK || snap.NumWords()+snap.NumPtrs() != 0 {
		t.Fatalf("LLX(leaf) = (%d fields, %v), want empty snapshot",
			snap.NumWords()+snap.NumPtrs(), st)
	}
	mustLLX(t, p, parent)
	repl := fresh()
	if !p.SCXPtr([]*core.Record{parent, leaf}, []*core.Record{leaf}, parent.PtrField(0), repl) {
		t.Fatal("SCX replacing leaf failed")
	}
	if !leaf.Finalized() {
		t.Error("leaf not finalized")
	}
	if got := parent.Ptr(0); got != repl {
		t.Errorf("parent.next = %v, want %v", got, repl)
	}
}

func TestLLXStatusAndStateStrings(t *testing.T) {
	cases := map[string]string{
		core.LLXOK.String():           "OK",
		core.LLXFinalized.String():    "Finalized",
		core.LLXFail.String():         "Fail",
		core.LLXStatus(99).String():   "InvalidStatus",
		core.StateInProgress.String(): "InProgress",
		core.StateCommitted.String():  "Committed",
		core.StateAborted.String():    "Aborted",
		core.State(99).String():       "InvalidState",
		core.StepFreezingCAS.String(): "FreezingCAS",
		core.StepFrozenCheck.String(): "FrozenCheck",
		core.StepAbort.String():       "Abort",
		core.StepFrozen.String():      "Frozen",
		core.StepMark.String():        "Mark",
		core.StepUpdateCAS.String():   "UpdateCAS",
		core.StepCommit.String():      "Commit",
		core.StepKind(99).String():    "InvalidStep",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestPreconditionPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		})
	}

	expectPanic("NegativeFields", func() { core.NewTypedRecord(-1, 0) })
	expectPanic("WidthOutOfRange", func() { core.NewTypedRecord(0, 256) })
	expectPanic("FieldOutOfRange", func() { newPair(t, 1, nil).WordField(5) })
	expectPanic("LLXNil", func() { llx(core.NewProcess(), nil) })
	expectPanic("SCXEmptyV", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		mustLLX(t, p, r)
		p.SCXWord(nil, nil, r.WordField(0), 2)
	})
	expectPanic("SCXNoLink", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		p.SCXWord([]*core.Record{r}, nil, r.WordField(0), 2)
	})
	expectPanic("SCXFldNotInV", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		other := newPair(t, 2, nil)
		mustLLX(t, p, r)
		mustLLX(t, p, other)
		p.SCXWord([]*core.Record{r}, nil, other.WordField(0), 3)
	})
	expectPanic("SCXRNotSubsetOfV", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		other := newPair(t, 2, nil)
		mustLLX(t, p, r)
		mustLLX(t, p, other)
		p.SCXWord([]*core.Record{r}, []*core.Record{other}, r.WordField(0), 2)
	})
	expectPanic("SCXNilInV", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		mustLLX(t, p, r)
		p.SCXWord([]*core.Record{r, nil}, nil, r.WordField(0), 2)
	})
	expectPanic("SCXWrongFieldKind", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		mustLLX(t, p, r)
		p.SCXPtr([]*core.Record{r}, nil, r.WordField(0), fresh())
	})
	expectPanic("SCXZeroFieldRef", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		mustLLX(t, p, r)
		p.SCXWord([]*core.Record{r}, nil, core.FieldRef{Rec: r}, 2)
	})
	expectPanic("VLXNoLink", func() {
		p := core.NewProcess()
		r := newPair(t, 1, nil)
		p.VLX([]*core.Record{r})
	})
}
