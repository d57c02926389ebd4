package core

import (
	"sync/atomic"
	"unsafe"
)

// State is the lifecycle state of an SCX-record (paper Figure 2/7). A newly
// created SCX-record is InProgress; it transitions exactly once, to Committed
// (the SCX's update took effect) or Aborted (the SCX failed to freeze all of
// V). The dummy SCX-record is permanently Aborted.
type State int32

// SCX-record states.
const (
	StateInProgress State = iota + 1
	StateCommitted
	StateAborted
)

// String returns the state name for diagnostics.
func (s State) String() string {
	switch s {
	case StateInProgress:
		return "InProgress"
	case StateCommitted:
		return "Committed"
	case StateAborted:
		return "Aborted"
	default:
		return "InvalidState"
	}
}

// maxInlineV is the V-sequence length an SCXRecord holds inline. The paper's
// structures (and all of this repository's) use k <= 4; longer sequences
// spill to heap slices.
const maxInlineV = 4

// SCXRecord is an operation descriptor holding enough information for any
// process to complete an in-progress SCX (paper Figure 1). While an SCX is
// active, the info fields of the records in its V sequence point at its
// SCXRecord, freezing them: a frozen record may be changed only on behalf of
// that SCX. SCXRecords are exposed read-only, for tests and instrumentation.
//
// The descriptor is a single allocation: the V and R sequences and the
// per-record info snapshot live in fixed inline arrays (slices are used only
// when a sequence exceeds maxInlineV). The target field is either a word
// slot with old/new uint64 values or a pointer slot with old/new raw
// pointers.
//
// Descriptor identity is what the info-field CASes compare (Lemma 12), so a
// descriptor address may be reused only when no process can still compare
// against its previous life: processes running under internal/reclaim's
// announced epochs recycle descriptors after a grace period gated on every
// such reference being displaced (see descReady and DESIGN.md); processes
// outside announced epochs allocate freshly and leave reclamation to the GC.
type SCXRecord struct {
	nv, nr     int
	vInline    [maxInlineV]*Record
	rInline    [maxInlineV]*Record
	infoInline [maxInlineV]*SCXRecord
	vSpill     []*Record
	rSpill     []*Record
	infoSpill  []*SCXRecord

	// The target field: exactly one of fldWord/fldPtr is non-nil.
	fldWord *atomic.Uint64
	fldPtr  *atomicPtr
	oldWord uint64
	newWord uint64
	oldPtr  unsafe.Pointer
	newPtr  unsafe.Pointer

	state     atomic.Int32
	allFrozen atomic.Bool
}

// resetForReuse clears a recycled descriptor back to a blank slate. It runs
// only on descriptors handed back by internal/reclaim, i.e. after the grace
// periods proved no process can still observe the previous life.
func (u *SCXRecord) resetForReuse() {
	u.nv, u.nr = 0, 0
	u.vInline = [maxInlineV]*Record{}
	u.rInline = [maxInlineV]*Record{}
	u.infoInline = [maxInlineV]*SCXRecord{}
	u.vSpill, u.rSpill, u.infoSpill = nil, nil, nil
	u.fldWord, u.fldPtr = nil, nil
	u.oldWord, u.newWord = 0, 0
	u.oldPtr, u.newPtr = nil, nil
	u.allFrozen.Store(false)
	u.state.Store(0)
}

// vSeq returns the V sequence without allocating (the inline case slices the
// descriptor's own array). The result must not be modified.
func (u *SCXRecord) vSeq() []*Record {
	if u.vSpill != nil {
		return u.vSpill
	}
	return u.vInline[:u.nv]
}

// rSeq returns the R sequence without allocating. The result must not be
// modified.
func (u *SCXRecord) rSeq() []*Record {
	if u.rSpill != nil {
		return u.rSpill
	}
	return u.rInline[:u.nr]
}

// infoSeq returns the info pointers read by the linked LLXs for V, aligned
// with vSeq. The result must not be modified.
func (u *SCXRecord) infoSeq() []*SCXRecord {
	if u.infoSpill != nil {
		return u.infoSpill
	}
	return u.infoInline[:u.nv]
}

// dummySCXRecord is the SCX-record all Records' info fields initially point
// at. It is permanently in state Aborted and no process ever helps it
// (paper Lemma 11).
var dummySCXRecord = newDummySCXRecord()

func newDummySCXRecord() *SCXRecord {
	u := &SCXRecord{}
	u.state.Store(int32(StateAborted))
	return u
}

// State returns the current state of u.
func (u *SCXRecord) State() State { return State(u.state.Load()) }

// AllFrozen reports whether u's allFrozen bit has been set, meaning every
// record in V was frozen for u and the SCX can no longer be aborted.
func (u *SCXRecord) AllFrozen() bool { return u.allFrozen.Load() }

// V returns the records the SCX depends on, in freezing order. The returned
// slice must not be modified.
func (u *SCXRecord) V() []*Record { return u.vSeq() }

// R returns the records the SCX finalizes. The returned slice must not be
// modified.
func (u *SCXRecord) R() []*Record { return u.rSeq() }
