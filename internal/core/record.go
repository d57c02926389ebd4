package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// maxInlineWidth is the number of word and pointer slots a Record (and a
// Fields snapshot) holds inline. Every record in this repository's data
// structures has at most two mutable fields; wider records (tests) spill to
// heap slices allocated once at creation.
const maxInlineWidth = 4

// atomicPtr is an atomic unsafe.Pointer cell (the stdlib's atomic.Pointer
// is typed; record pointer fields are deliberately untyped words).
type atomicPtr struct{ p unsafe.Pointer }

func (a *atomicPtr) Load() unsafe.Pointer   { return atomic.LoadPointer(&a.p) }
func (a *atomicPtr) Store(v unsafe.Pointer) { atomic.StorePointer(&a.p, v) }
func (a *atomicPtr) CompareAndSwap(old, new unsafe.Pointer) bool {
	return atomic.CompareAndSwapPointer(&a.p, old, new)
}

// Record is a Data-record: the unit on which LLX, SCX and VLX operate. A
// Record has a fixed number of single-word mutable fields, read with
// Word/Ptr, snapshot with LLXFields and written only by SCXWord/SCXPtr.
// Immutable fields live in the structure node that embeds the record.
//
// Mutable storage is typed and unboxed: a record has nw uint64 word fields
// and np pointer fields, each an atomic machine word, held inline up to
// maxInlineWidth per kind and spilled to slices beyond that.
//
// A field must never be given a value it held before (the paper's Section
// 4.1); the package documentation states the rule per field kind.
//
// In addition to its user fields, a Record carries the bookkeeping fields of
// the paper's Figure 1: an info pointer to the SCX-record of the last SCX
// that froze it, and a marked bit used to finalize it.
//
// Records may be embedded by value inside structure nodes (see InitRecord),
// which makes node+record a single allocation and lets internal/reclaim
// recycle both together. A Record must not be copied after first use.
type Record struct {
	info   atomic.Pointer[SCXRecord]
	marked atomic.Bool
	nw, np uint8

	wordsInline [maxInlineWidth]atomic.Uint64
	ptrsInline  [maxInlineWidth]atomicPtr
	wordSpill   []atomic.Uint64
	ptrSpill    []atomicPtr
}

// NewTypedRecord creates a record with words uint64 fields and ptrs pointer
// fields, all zero. Set initial values with SetWord/SetPtr before the
// record is published.
func NewTypedRecord(words, ptrs int) *Record {
	r := &Record{}
	initRecord(r, words, ptrs)
	return r
}

// InitRecord initializes an embedded (zero-valued) Record in place with the
// given field widths: the constructor for records living inside structure
// nodes. It must be called exactly once before the record is published.
func InitRecord(r *Record, words, ptrs int) {
	initRecord(r, words, ptrs)
}

func initRecord(r *Record, words, ptrs int) {
	if words < 0 || ptrs < 0 || words > 255 || ptrs > 255 {
		panic(fmt.Sprintf("core: record field widths %d/%d out of range", words, ptrs))
	}
	r.nw, r.np = uint8(words), uint8(ptrs)
	if words > maxInlineWidth {
		r.wordSpill = make([]atomic.Uint64, words)
	}
	if ptrs > maxInlineWidth {
		r.ptrSpill = make([]atomicPtr, ptrs)
	}
	r.info.Store(dummySCXRecord)
}

// Recycle re-arms a record that internal/reclaim handed back for reuse:
// the marked bit is cleared and the info pointer rewound to the dummy
// SCX-record. The caller must reinitialize the field values with
// SetWord/SetPtr before republishing; field widths are retained. Recycle
// must only be called on records no other process can reach (i.e. after a
// full grace period).
func (r *Record) Recycle() {
	r.marked.Store(false)
	r.info.Store(dummySCXRecord)
}

// wslot returns word slot i.
func (r *Record) wslot(i int) *atomic.Uint64 {
	if r.wordSpill != nil {
		return &r.wordSpill[i]
	}
	return &r.wordsInline[i]
}

// pslot returns pointer slot i.
func (r *Record) pslot(i int) *atomicPtr {
	if r.ptrSpill != nil {
		return &r.ptrSpill[i]
	}
	return &r.ptrsInline[i]
}

// NumWords returns the number of uint64 word fields of r.
func (r *Record) NumWords() int { return int(r.nw) }

// NumPtrs returns the number of pointer fields of r.
func (r *Record) NumPtrs() int { return int(r.np) }

// NumMutable returns the number of mutable fields of r: words plus
// pointers.
func (r *Record) NumMutable() int { return int(r.nw) + int(r.np) }

// Word atomically reads word field i of r. Plain reads are permitted
// alongside LLX: the paper linearizes them, and Proposition 2 lets searches
// traverse a structure with reads instead of LLXs.
func (r *Record) Word(i int) uint64 {
	r.checkWord(i)
	return r.wslot(i).Load()
}

// Ptr atomically reads pointer field i of r.
func (r *Record) Ptr(i int) unsafe.Pointer {
	r.checkPtr(i)
	return r.pslot(i).Load()
}

// SetWord initializes word field i. It is an initialization write: legal
// only while the record is unpublished (freshly created or recycled and not
// yet linked into a structure). Published fields change only through SCX.
func (r *Record) SetWord(i int, v uint64) {
	r.checkWord(i)
	r.wslot(i).Store(v)
}

// SetPtr initializes pointer field i; same publication rule as SetWord.
func (r *Record) SetPtr(i int, p unsafe.Pointer) {
	r.checkPtr(i)
	r.pslot(i).Store(p)
}

// Finalized reports whether r has been finalized: r is marked and the SCX
// that marked it has committed. A finalized record can never change again.
func (r *Record) Finalized() bool {
	inf := r.info.Load()
	return r.marked.Load() && State(inf.state.Load()) == StateCommitted
}

// Info returns the SCX-record r's info pointer currently designates: the
// descriptor of the last SCX that froze r, or the dummy SCX-record if none
// has. Intended for tests and instrumentation; the value may be stale by the
// time it is returned.
func (r *Record) Info() *SCXRecord { return r.info.Load() }

// Frozen reports whether r is currently frozen for some SCX-record, per the
// paper's Figure 8: r.info's state is InProgress, or it is Committed and r is
// marked. Intended for tests and diagnostics; the value may be stale by the
// time it is returned.
func (r *Record) Frozen() bool {
	inf := r.info.Load()
	switch State(inf.state.Load()) {
	case StateInProgress:
		return true
	case StateCommitted:
		return r.marked.Load()
	default:
		return false
	}
}

func (r *Record) checkWord(i int) {
	if i < 0 || i >= int(r.nw) {
		panic(fmt.Sprintf("core: word field index %d out of range [0,%d)", i, r.nw))
	}
}

func (r *Record) checkPtr(i int) {
	if i < 0 || i >= int(r.np) {
		panic(fmt.Sprintf("core: pointer field index %d out of range [0,%d)", i, r.np))
	}
}

// fieldKind says which storage a FieldRef names.
type fieldKind uint8

const (
	fieldWord fieldKind = iota + 1 // the zero FieldRef names no field
	fieldPtr
)

// FieldRef names one mutable field of one Record; it is the fld argument of
// Process.SCXWord/SCXPtr. Build one with Record.WordField or
// Record.PtrField.
type FieldRef struct {
	Rec   *Record
	Field int
	kind  fieldKind
}

// WordField returns a FieldRef for word field i of r, for use with SCXWord.
func (r *Record) WordField(i int) FieldRef {
	r.checkWord(i)
	return FieldRef{Rec: r, Field: i, kind: fieldWord}
}

// PtrField returns a FieldRef for pointer field i of r, for use with SCXPtr.
func (r *Record) PtrField(i int) FieldRef {
	r.checkPtr(i)
	return FieldRef{Rec: r, Field: i, kind: fieldPtr}
}
