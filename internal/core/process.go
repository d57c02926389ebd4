package core

import (
	"fmt"
	"unsafe"

	"pragmaprim/internal/reclaim"
)

// LLXStatus is the outcome of an LLX.
type LLXStatus int

// LLX outcomes.
const (
	// LLXOK: the LLX returned a snapshot of the record's mutable fields.
	LLXOK LLXStatus = iota + 1
	// LLXFinalized: the record has been finalized by a committed SCX and can
	// never change again.
	LLXFinalized
	// LLXFail: the LLX failed due to a concurrent SCX; retry.
	LLXFail
)

// String returns the status name for diagnostics.
func (s LLXStatus) String() string {
	switch s {
	case LLXOK:
		return "OK"
	case LLXFinalized:
		return "Finalized"
	case LLXFail:
		return "Fail"
	default:
		return "InvalidStatus"
	}
}

// llxEntry is one row of the paper's per-process table of LLX results: the
// info pointer and the raw field words read by the process's last LLX on a
// record.
type llxEntry struct {
	info *SCXRecord
	f    Fields
}

// Link-table geometry. The paper's V-sequences have k <= 4 for every
// structure in this repository, and links are consumed by the SCX/VLX that
// follows them almost immediately, so the set of *live* links is tiny. The
// inline table is a fixed-capacity open-addressed hash table (linear
// probing, backward-shift deletion) sized so the hot path never touches a
// Go map; links that overflow it — typically stale links abandoned by retry
// loops — are evicted, oldest first, to a lazily allocated spill map, which
// preserves the paper's linked-LLX semantics exactly.
const (
	linkTableBits = 4
	linkTableCap  = 1 << linkTableBits // power of two: hashing and probe masks rely on it
	linkTableMask = linkTableCap - 1
	// linkTableMax caps the inline load at 3/4 so probe chains stay short
	// and an empty slot always terminates a probe.
	linkTableMax = linkTableCap * 3 / 4
)

// linkTable is the per-process table of linked LLX results.
type linkTable struct {
	recs    [linkTableCap]*Record
	entries [linkTableCap]llxEntry
	stamps  [linkTableCap]uint64
	n       int
	stamp   uint64
	spill   map[*Record]llxEntry
	scratch llxEntry // staging for get hits served from spill
}

// home returns the preferred slot for r: fibonacci hashing over the record's
// address (records are heap-allocated and never move identity).
func (t *linkTable) home(r *Record) int {
	h := uint64(uintptr(unsafe.Pointer(r)))
	return int((h * 0x9E3779B97F4A7C15) >> (64 - linkTableBits))
}

// get returns the entry linked for r, or nil. The returned pointer is
// invalidated by the next operation on the table.
func (t *linkTable) get(r *Record) *llxEntry {
	i := t.home(r)
	for {
		switch t.recs[i] {
		case r:
			return &t.entries[i]
		case nil:
			if t.spill != nil {
				if e, ok := t.spill[r]; ok {
					t.scratch = e
					return &t.scratch
				}
			}
			return nil
		}
		i = (i + 1) & linkTableMask
	}
}

// put returns the entry slot for r, inserting r if it is not present. The
// caller fills the returned entry; its pointer is invalidated by the next
// put/del.
func (t *linkTable) put(r *Record) *llxEntry {
	t.stamp++
	i := t.home(r)
	for {
		switch t.recs[i] {
		case r:
			t.stamps[i] = t.stamp
			return &t.entries[i]
		case nil:
			// Not inline. A re-LLX of a spilled record moves it back inline:
			// it is hot again.
			if t.spill != nil {
				delete(t.spill, r)
			}
			if t.n == linkTableMax {
				t.evictOldest()
				// Eviction may have shifted slots; re-probe.
				return t.put(r)
			}
			t.recs[i] = r
			t.stamps[i] = t.stamp
			t.n++
			return &t.entries[i]
		}
		i = (i + 1) & linkTableMask
	}
}

// del removes the link for r, if any.
func (t *linkTable) del(r *Record) {
	i := t.home(r)
	for {
		switch t.recs[i] {
		case r:
			t.removeAt(i)
			return
		case nil:
			if t.spill != nil {
				delete(t.spill, r)
			}
			return
		}
		i = (i + 1) & linkTableMask
	}
}

// evictOldest moves the least recently linked inline entry to the spill map,
// preserving its link.
func (t *linkTable) evictOldest() {
	oldest := -1
	for i := range t.recs {
		if t.recs[i] != nil && (oldest < 0 || t.stamps[i] < t.stamps[oldest]) {
			oldest = i
		}
	}
	if t.spill == nil {
		t.spill = make(map[*Record]llxEntry)
	}
	t.spill[t.recs[oldest]] = t.entries[oldest]
	t.removeAt(oldest)
}

// removeAt empties slot i, backward-shifting any displaced entries so linear
// probing stays correct without tombstones.
func (t *linkTable) removeAt(i int) {
	t.n--
	j := i
	for {
		t.recs[i] = nil
		t.entries[i] = llxEntry{}
		for {
			j = (j + 1) & linkTableMask
			if t.recs[j] == nil {
				return
			}
			k := t.home(t.recs[j])
			// Move the entry at j into the hole at i unless its home k lies
			// cyclically in (i, j], in which case it is already reachable.
			if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
				break
			}
		}
		t.recs[i] = t.recs[j]
		t.entries[i] = t.entries[j]
		t.stamps[i] = t.stamps[j]
		i = j
	}
}

// links counts the live links (inline + spilled); for tests.
func (t *linkTable) links() int { return t.n + len(t.spill) }

// Process is a participant in the protocol, holding the paper's per-process
// table of LLX results and per-process step Metrics. Create one Process per
// goroutine with NewProcess; a Process must not be used concurrently.
// Records and the data structures built from them are freely shared between
// Processes.
type Process struct {
	table   linkTable
	Metrics Metrics
	recl    *reclaim.Local
}

// NewProcess returns a fresh Process with an empty LLX table.
func NewProcess() *Process {
	return &Process{}
}

// Reclaimer returns the process's epoch-reclamation state, creating it on
// first use. The template engine announces every operation through it,
// which is what arms descriptor recycling on this process; raw Processes
// that never announce keep the classic allocate-and-abandon behavior.
func (p *Process) Reclaimer() *reclaim.Local {
	if p.recl == nil {
		p.recl = reclaim.NewLocal(nil)
	}
	return p.recl
}

// LLXFields performs a load-link-extended on r (paper Figure 4, lines
// 1-16), capturing the snapshot into the caller-owned f.
//
// On LLXOK f holds a snapshot of r's mutable fields and a link is
// established that a subsequent SCX or VLX whose V-sequence contains r will
// depend on. LLXFinalized means r was finalized by a committed SCX. LLXFail
// means a concurrent SCX interfered; the caller should retry. Per the
// paper's linked-LLX definition, a successful LLX(r) remains linked until
// the process performs another LLX(r), an SCX whose V contains r, or an
// unsuccessful VLX whose V contains r.
//
// LLXFields is allocation-free for records up to maxInlineWidth fields per
// kind: it touches the heap only via the link table's spill map in
// pathological link patterns.
func (p *Process) LLXFields(r *Record, f *Fields) LLXStatus {
	if r == nil {
		panic("core: LLX of nil Record")
	}
	p.Metrics.LLXOps++

	marked1 := r.marked.Load() // line 3: order of lines 3-6 matters
	rinfo := r.info.Load()     // line 4
	state := rinfo.State()     // line 5
	marked2 := r.marked.Load() // line 6

	// Line 7: r was not frozen at line 5.
	if state == StateAborted || (state == StateCommitted && !marked2) {
		// Line 8: read the mutable fields into the caller's staging area;
		// they are published to the link table only after the line-9
		// validation.
		r.captureInto(f)
		// Line 9: r.info still points to the same SCX-record, so r was
		// unfrozen throughout and the values form a snapshot.
		if r.info.Load() == rinfo {
			e := p.table.put(r) // line 10
			e.info = rinfo
			e.f.copyFrom(f)
			p.Metrics.LLXSnapshots++
			return LLXOK // line 11
		}
	}

	// Line 12: evaluated left to right with short-circuiting, exactly as in
	// the paper: help rinfo if it is in progress, then test marked1.
	finalized := state == StateCommitted ||
		(state == StateInProgress && p.help(rinfo))
	if finalized && marked1 {
		p.Metrics.LLXFinalized++
		return LLXFinalized // line 13
	}

	// Line 15: help whatever SCX currently has r frozen, then fail.
	if inf := r.info.Load(); inf.State() == StateInProgress {
		p.help(inf)
	}
	p.Metrics.LLXFails++
	return LLXFail // line 16
}

// SCXWord performs a store-conditional-extended (paper Figure 4, lines
// 17-21) on a uint64 word field: atomically store newWord into fld and
// finalize every record in rset, provided no record in v has changed since
// this process's linked LLX on it. rset must be a subset of v, and fld.Rec
// must be in v. SCXWord reports whether it succeeded; on failure the caller
// must re-perform the LLXs before retrying.
//
// Preconditions (checked, panic on violation, as these are programming
// errors): the process has a linked LLX for every record in v, rset ⊆ v, and
// fld names a word field of a record in v. The paper's remaining
// precondition (Section 4.1) is the caller's: newWord must differ from
// every value the field has held during the record's current lifetime. All
// word fields in this repository are monotonically increasing counts, which
// satisfies it trivially.
//
// An SCX performs at most one heap allocation (the operation descriptor),
// and zero once the process runs under an announced reclamation epoch (the
// template engine's default), where descriptors are recycled through
// internal/reclaim after their grace periods. Neither v nor rset is
// retained, so callers may reuse (or stack-allocate) the slices.
func (p *Process) SCXWord(v []*Record, rset []*Record, fld FieldRef, newWord uint64) bool {
	if fld.kind != fieldWord {
		panic("core: SCXWord with a non-word FieldRef")
	}
	u := p.buildSCXRecord(v, rset, fld)
	u.newWord = newWord
	return p.runSCX(u, v)
}

// SCXPtr is SCXWord for a pointer field. The Section 4.1 constraint holds
// when newPtr is either freshly allocated or recycled via internal/reclaim
// (a recycled address cannot still be the expected old value of any
// in-flight helper, because the helper's announcement would have blocked
// the grace period; see DESIGN.md). nil, or any older value of the field,
// must never be written back.
func (p *Process) SCXPtr(v []*Record, rset []*Record, fld FieldRef, newPtr unsafe.Pointer) bool {
	if fld.kind != fieldPtr {
		panic("core: SCXPtr with a non-pointer FieldRef")
	}
	u := p.buildSCXRecord(v, rset, fld)
	u.newPtr = newPtr
	return p.runSCX(u, v)
}

// runSCX consumes the links for v, executes the SCX body and retires the
// descriptor for recycling when the process runs under an announced epoch.
func (p *Process) runSCX(u *SCXRecord, v []*Record) bool {
	p.Metrics.SCXOps++
	// Performing the SCX un-links the LLXs it consumed (Definition 7).
	for _, r := range v {
		p.table.del(r)
	}
	ok := p.help(u) // line 21
	if ok {
		p.Metrics.SCXSuccesses++
	}
	if p.recl != nil && p.recl.Active() {
		// The descriptor stays reachable through the info fields of the
		// records it froze; descReady gates its reuse on their displacement,
		// and the limbo re-stamp rule adds a fresh grace period after the
		// last reference is displaced.
		descPool.Retire(p.recl, u)
	}
	return ok
}

// descPool recycles SCX descriptors. A descriptor is recyclable only after
// (a) its grace period and (b) no record in its V-sequence still designates
// it as info.
var descPool = reclaim.NewPoolReady[SCXRecord](descReady)

func descReady(u *SCXRecord) bool {
	for _, r := range u.vSeq() {
		if r.info.Load() == u {
			return false
		}
	}
	return true
}

// newSCXRecord returns a descriptor: recycled from the process's freelist
// when the process runs announced, freshly allocated otherwise. A fresh (or
// fully reclaimed) descriptor address is what preserves the info-field ABA
// argument of Lemma 12; see DESIGN.md for why the grace periods make reuse
// equivalent to freshness.
func (p *Process) newSCXRecord() *SCXRecord {
	if p.recl != nil && p.recl.Active() {
		if u := descPool.Get(p.recl); u != nil {
			u.resetForReuse()
			return u
		}
	}
	return &SCXRecord{}
}

// buildSCXRecord validates the SCX preconditions against the per-process LLX
// table and materializes the operation descriptor (paper lines 19-21): the
// V/R/info sequences land in the descriptor's inline arrays (heap slices
// only beyond maxInlineV) and the old value of the target field is taken
// from the linked LLX's captured snapshot (line 20). The caller fills in the
// kind-specific new value before running the SCX.
func (p *Process) buildSCXRecord(v []*Record, rset []*Record, fld FieldRef) *SCXRecord {
	if len(v) == 0 {
		panic("core: SCX with empty V sequence")
	}
	u := p.newSCXRecord()
	u.nv, u.nr = len(v), len(rset)
	var infos []*SCXRecord
	if len(v) > maxInlineV {
		// Copy, do not alias: v must not escape to the descriptor.
		u.vSpill = append([]*Record(nil), v...)
		u.infoSpill = make([]*SCXRecord, len(v))
		infos = u.infoSpill
	} else {
		copy(u.vInline[:], v)
		infos = u.infoInline[:len(v)]
	}
	if len(rset) > maxInlineV {
		u.rSpill = append([]*Record(nil), rset...)
	} else {
		copy(u.rInline[:], rset)
	}
	u.state.Store(int32(StateInProgress))

	fldInV := false
	for i, r := range v {
		if r == nil {
			panic("core: SCX with nil Record in V")
		}
		e := p.table.get(r)
		if e == nil {
			panic("core: SCX without a linked LLX for a record in V")
		}
		infos[i] = e.info
		if r == fld.Rec {
			fldInV = true
		}
	}
	if !fldInV {
		panic("core: SCX fld does not name a record in V")
	}
	for _, r := range rset {
		inV := false
		for _, rv := range v {
			if rv == r {
				inV = true
				break
			}
		}
		if !inV {
			panic("core: SCX with a record in R that is not in V")
		}
	}
	// Line 20: the old value comes from the linked LLX's snapshot.
	e := p.table.get(fld.Rec)
	switch fld.kind {
	case fieldWord:
		if fld.Field < 0 || fld.Field >= fld.Rec.NumWords() {
			panic(fmt.Sprintf("core: SCX word field index %d out of range [0,%d)",
				fld.Field, fld.Rec.NumWords()))
		}
		u.fldWord = fld.Rec.wslot(fld.Field)
		u.oldWord = e.f.Word(fld.Field)
	default:
		if fld.Field < 0 || fld.Field >= fld.Rec.NumPtrs() {
			panic(fmt.Sprintf("core: SCX fld index %d out of range [0,%d)",
				fld.Field, fld.Rec.NumPtrs()))
		}
		u.fldPtr = fld.Rec.pslot(fld.Field)
		u.oldPtr = e.f.Ptr(fld.Field)
	}
	return u
}

// VLX performs a validate-extended on v (paper Figure 4, lines 43-48): it
// returns true iff, for every record in v, the record has not changed since
// this process's linked LLX on it. A successful VLX preserves the links; an
// unsuccessful VLX consumes them. Panics if the process lacks a linked LLX
// for some record in v.
func (p *Process) VLX(v []*Record) bool {
	p.Metrics.VLXOps++
	for _, r := range v {
		e := p.table.get(r)
		if e == nil {
			panic("core: VLX without a linked LLX for a record in V")
		}
		p.Metrics.VLXReads++
		if r.info.Load() != e.info { // line 47
			// An unsuccessful VLX un-links the LLXs for v (Definition 7).
			for _, rr := range v {
				p.table.del(rr)
			}
			return false
		}
	}
	p.Metrics.VLXSuccesses++
	return true // line 48
}

// help executes the body of an SCX on behalf of whichever process created u
// (paper Figure 4, lines 22-42). It returns true iff the SCX committed.
func (p *Process) help(u *SCXRecord) bool {
	p.Metrics.HelpCalls++

	// Freeze every record in u.V, in order, to protect their mutable fields
	// from other SCXs (lines 24-35).
	infos := u.infoSeq()
	for i, r := range u.vSeq() {
		rinfo := infos[i]
		callHook(StepFreezingCAS, u, r)
		p.Metrics.FreezingCASAttempts++
		if r.info.CompareAndSwap(rinfo, u) { // line 26: freezing CAS
			p.Metrics.FreezingCASSuccesses++
			continue
		}
		if r.info.Load() == u { // line 27: another helper froze r for u
			continue
		}
		// r is frozen for a different SCX.
		callHook(StepFrozenCheck, u, r)
		if u.allFrozen.Load() { // line 29: frozen check step
			// Every record was frozen for u at some point, so u has already
			// committed (line 31).
			return true
		}
		// Atomically unfreeze everything frozen for u (lines 34-35).
		callHook(StepAbort, u, r)
		u.state.Store(int32(StateAborted)) // abort step
		p.Metrics.AbortSteps++
		return false
	}

	callHook(StepFrozen, u, nil)
	u.allFrozen.Store(true) // line 37: frozen step
	p.Metrics.FrozenSteps++

	for _, r := range u.rSeq() {
		callHook(StepMark, u, r)
		r.marked.Store(true) // line 38: mark step
		p.Metrics.MarkSteps++
	}

	callHook(StepUpdateCAS, u, nil)
	p.Metrics.UpdateCASAttempts++
	// Line 39: update CAS on the target word. Word and pointer fields CAS
	// their raw values; the distinct-value precondition (word: monotone
	// values; pointer: fresh or grace-period-recycled addresses) is what
	// makes a late helper's CAS fail benignly.
	var updated bool
	if u.fldWord != nil {
		updated = u.fldWord.CompareAndSwap(u.oldWord, u.newWord)
	} else {
		updated = u.fldPtr.CompareAndSwap(u.oldPtr, u.newPtr)
	}
	if updated {
		p.Metrics.UpdateCASSuccesses++
	}

	callHook(StepCommit, u, nil)
	u.state.Store(int32(StateCommitted)) // line 41: commit step
	p.Metrics.CommitSteps++
	return true
}

// HasLink reports whether the process currently holds a linked LLX for r.
// Useful for assertions in data-structure code and tests.
func (p *Process) HasLink(r *Record) bool {
	return p.table.get(r) != nil
}
