// Package template is the update engine shared by every LLX/SCX data
// structure in this repository. The paper's pitch is that all non-blocking
// updates have one shape — search with plain reads, LLX the records the
// update depends on, validate, then commit with a single SCX — and the five
// structures here (multiset, bst, trie, queue, stack) used to hand-roll that
// loop. Run owns it instead: the retry loop, the retry policy (immediate,
// capped spin backoff, spin-then-yield), the per-operation attempt/failure
// counters, the reusable Fields snapshot buffers that keep the fast path
// allocation-free, and the guard that turns a would-spin-forever retry on a
// finalized record into a crash with a diagnosis.
//
// An operation supplies only its attempt body: position with plain reads,
// link records with Ctx.LLXF, validate the snapshots, and either commit with
// Ctx.SCXWord/Ctx.SCXPtr (or Ctx.VLX for read validation) and return Done,
// or return Retry.
// Everything else — when to back off, what to count, which snapshot buffer a
// link uses — is the engine's job, so a new structure gets the whole of PR
// 1's zero-allocation fast path by construction.
package template

import (
	"sync/atomic"
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/reclaim"
)

// Action is an attempt body's verdict on one try of an operation.
type Action uint8

const (
	// Retry re-runs the attempt after the policy's backoff: an LLX failed,
	// a validation caught the structure moving, or the SCX lost a race.
	Retry Action = iota
	// Done ends the operation; Run returns the attempt's result.
	Done
)

// maxLinks sizes a Ctx's snapshot-buffer and read-set arrays. The widest
// V-sequence any structure here links is 4 records (BST and trie deletes);
// 6 leaves headroom without making the cached Ctx large.
const maxLinks = 6

// Ctx is the per-attempt face of the engine: it hands out snapshot buffers,
// forwards to the LLX/SCX/VLX primitives, and records what happened for the
// retry counters and the finalized-spin guard. A Ctx is valid only inside
// the attempt body it was passed to.
type Ctx struct {
	proc *core.Process
	recl *reclaim.Local

	// Snapshot buffers, one per LLX of the current attempt. They are reused
	// across attempts and operations (the engine caches the Ctx on the
	// Handle), which is safe because an attempt that fails abandons its
	// snapshots and a Done attempt consumes them before Run returns.
	fbufs [maxLinks]core.Fields
	nfbuf int

	// Read set of the current and previous attempt, for the finalized-spin
	// guard (see Run). try numbers attempts; fin/finTry record the last
	// record an attempt saw finalized and that attempt's number, and
	// prevFin/prevFinTry the same for an earlier attempt. Only the
	// LLXFinalized branch writes them.
	linked     [maxLinks]*core.Record
	nlinked    int
	prev       [maxLinks]*core.Record
	nprev      int
	try        uint64
	fin        *core.Record
	finTry     uint64
	prevFin    *core.Record
	prevFinTry uint64

	// Per-operation tallies, flushed to the OpStats once per Run.
	llxFails int64
	scxFails int64
	stripe   uint32 // this Ctx's OpStats counter stripe
	spinSink int    // keeps backoff spin loops from being optimized away
}

// nextStripe assigns counter stripes to Ctxs round-robin.
var nextStripe atomic.Uint32

// Process exposes the underlying Process for primitives the Ctx does not
// wrap (SnapshotAll, metrics).
func (c *Ctx) Process() *core.Process { return c.proc }

// Reclaim exposes the operation's epoch-reclamation state: attempt bodies
// allocate nodes from their structure's reclaim.Pool through it and retire
// the nodes their committed SCX unlinked. It is valid inside the attempt
// (the engine has announced the epoch) and immediately after Run returns on
// the same goroutine.
func (c *Ctx) Reclaim() *reclaim.Local { return c.recl }

// LLXF load-link-extends r through an engine-owned Fields buffer, so the
// link allocates nothing for records up to core's inline field width. The
// returned snapshot is valid until the attempt returns.
func (c *Ctx) LLXF(r *core.Record) (*core.Fields, core.LLXStatus) {
	var f *core.Fields
	if c.nfbuf < maxLinks {
		f = &c.fbufs[c.nfbuf]
		c.nfbuf++
	} else {
		f = new(core.Fields) // attempts never link this wide; stay safe if one does
	}
	st := c.proc.LLXFields(r, f)
	if c.nlinked < maxLinks {
		c.linked[c.nlinked] = r
		c.nlinked++
	}
	switch st {
	case core.LLXFinalized:
		if c.finTry != c.try {
			c.prevFin, c.prevFinTry = c.fin, c.finTry
		}
		c.fin, c.finTry = r, c.try
	case core.LLXFail:
		c.llxFails++
	}
	return f, st
}

// SCXWord commits the attempt's update: one atomic store of newWord into
// the word field fld plus finalization of rset, conditional on every record
// in v being unchanged since this attempt's LLX on it. newWord must be a
// value fld has never held (see Process.SCXWord). Neither v nor rset is
// retained, so slice literals at the call site stay on the caller's stack.
func (c *Ctx) SCXWord(v []*core.Record, rset []*core.Record, fld core.FieldRef, newWord uint64) bool {
	ok := c.proc.SCXWord(v, rset, fld, newWord)
	if !ok {
		c.scxFails++
	}
	return ok
}

// SCXPtr is SCXWord for a pointer field; newPtr must be fresh or recycled
// through internal/reclaim, never nil or an older value (see
// Process.SCXPtr).
func (c *Ctx) SCXPtr(v []*core.Record, rset []*core.Record, fld core.FieldRef, newPtr unsafe.Pointer) bool {
	ok := c.proc.SCXPtr(v, rset, fld, newPtr)
	if !ok {
		c.scxFails++
	}
	return ok
}

// CASFailed records a failed single-word commit for a structure whose
// update is a degenerate one-record SCX — a plain CAS on one location (the
// hash map's bucket heads). Routing the failure through the Ctx keeps such
// structures' retries visible in the same SCXFails counters the
// descriptor-based structures report.
func (c *Ctx) CASFailed() { c.scxFails++ }

// VLX validates that every record in v is unchanged since this attempt's
// LLX on it — the read-only commit used where an operation's result is an
// observation (e.g. queue emptiness) rather than a write.
func (c *Ctx) VLX(v []*core.Record) bool {
	return c.proc.VLX(v)
}

// beginAttempt rolls the read set over and rearms the buffers.
func (c *Ctx) beginAttempt() {
	c.nprev = c.nlinked
	copy(c.prev[:c.nprev], c.linked[:c.nlinked])
	c.nlinked = 0
	c.nfbuf = 0
	c.try++
}

// pinned reports whether the attempt that just failed saw LLXFinalized on
// the same record as its predecessor AND linked exactly the records its
// predecessor linked, in order. Retrying such an attempt cannot ever
// succeed — a finalized record never changes again — so the engine refuses
// to spin on it (see Run). A failed attempt whose predecessor linked the
// same records without finding that one finalized is ordinary contention:
// the record was finalized between the two attempts, and the next attempt's
// re-search moves past it.
func (c *Ctx) pinned() bool {
	if c.finTry != c.try || c.prevFinTry != c.try-1 || c.fin != c.prevFin ||
		c.nlinked == 0 || c.nlinked != c.nprev {
		return false
	}
	for i := 0; i < c.nlinked; i++ {
		if c.linked[i] != c.prev[i] {
			return false
		}
	}
	return true
}

// ctxOf returns h's cached Ctx, building it on first use. The Ctx lives in
// the Handle's scratch slot, so pooled handles run operations with zero
// engine allocations after warmup.
func ctxOf(h *core.Handle) *Ctx {
	if c, ok := h.Scratch().(*Ctx); ok {
		return c
	}
	c := &Ctx{proc: h.Process(), stripe: nextStripe.Add(1)}
	c.recl = c.proc.Reclaimer()
	h.SetScratch(c)
	return c
}

// Enter announces a reclamation epoch for a read-only excursion into a
// structure on h: while announced, no node the reader can still reach will
// be recycled out from under it. Update operations need no explicit guard —
// Run announces for them — but plain-read paths (searches, traversals,
// peeks) must wrap themselves in Enter/Exit now that retired nodes are
// recycled rather than left to the garbage collector. Enter/Exit pairs
// nest.
func Enter(h *core.Handle) { ctxOf(h).recl.Enter() }

// Exit ends the read guard opened by the matching Enter. No reference
// obtained since the Enter may be used afterwards.
//
// Under the amortized epoch scheme Exit does NOT unpublish the
// announcement: it stays in the slot, going stale, until the refresh
// cadence or an explicit Quiesce renews it. A handle that goes idle between
// operations should Quiesce (or Release) so its stale announcement does not
// delay reclamation domain-wide.
func Exit(h *core.Handle) { ctxOf(h).recl.Exit() }

// Quiesce declares an explicit quiescent point for h: the caller holds no
// references into any shared structure and may not operate again for a
// while (a server connection about to block on its socket, a worker about
// to park on a channel). The reclamation announcement is unpublished — an
// idle stale announcement blocks epoch advancement for every structure in
// the domain — and the epoch gets one advance-and-drain push. The next
// operation republishes automatically. Must be called outside any
// Enter/Exit pair or Run.
func Quiesce(h *core.Handle) { ctxOf(h).recl.Quiesce() }

// Guarded runs fn under a pooled handle's epoch guard: the one-liner for
// handle-free plain-read paths (traversals, peeks, invariant checks).
// Centralizing the acquire+announce boilerplate keeps the invariant the
// recycling scheme depends on — every read path is guarded — in one place.
// fn must not retain references to structure nodes beyond its return.
func Guarded(fn func()) {
	h := core.AcquireHandle()
	defer h.Release()
	Enter(h)
	defer Exit(h)
	fn()
}

// Run executes one non-blocking update: it calls attempt until the attempt
// reports Done, applying the policy's backoff between tries and recording
// attempt/failure tallies into st. A nil policy means retry immediately; a
// nil st records nothing.
//
// Snapshot discipline: the Ctx hands every LLX its own engine-owned buffer,
// and buffers are recycled only at attempt boundaries — never while an
// attempt is running — so an attempt may hold all of its snapshots live at
// once, and a failed attempt's snapshots are dead by definition (the paper's
// contract: after a failed SCX the caller must re-LLX before retrying).
// That is what makes reusing the buffers across retries safe.
//
// Finalized-spin guard: if two consecutive failed attempts saw
// LLXFinalized on the same record and linked exactly the same records, no
// future attempt can ever succeed (a finalized record is permanently
// frozen), so Run panics with a diagnosis instead of spinning forever.
// Structures never trip this: their attempts re-search from an entry point
// that is never finalized, so a finalized record vanishes from the read set
// on the next try. Only an attempt body that hard-codes a finalizable record
// can, and that is a programming error worth crashing on.
func Run[T any](h *core.Handle, pol Policy, st *OpStats, attempt func(*Ctx) (T, Action)) T {
	c := ctxOf(h)
	c.nlinked, c.nprev = 0, 0
	c.llxFails, c.scxFails = 0, 0
	// Announce the reclamation epoch for the whole operation: every node
	// reference the attempts obtain is protected until Run returns, and the
	// descriptors this operation's SCXs create become recyclable. Under the
	// amortized scheme the announcement usually costs nothing — it is still
	// published from a previous operation — and the deferred Exit refreshes
	// it (advancing the epoch and draining limbo) only at the quiescence
	// cadence or when an allocation ran dry.
	//
	// The announcement deliberately spans retry backoffs too. Exiting
	// around a backoff would let epochs advance during contention, but it
	// would also let the previous attempt's read-set records be recycled,
	// and the finalized-spin guard below compares those records by
	// identity — an address reused for a fresh record could then alias a
	// pinned read set and panic spuriously. Backoffs are bounded (see
	// Policy), and a stalled epoch only degrades recycling to the GC
	// overflow path, never safety.
	c.recl.Enter()
	defer c.recl.Exit()
	tries := int64(0)
	for {
		c.beginAttempt()
		tries++
		res, act := attempt(c)
		if act == Done {
			if st != nil {
				st.flush(c.stripe, tries, c.llxFails, c.scxFails)
			}
			return res
		}
		if c.pinned() {
			panic("template: retrying an update whose read set is pinned on a " +
				"finalized record; the attempt must re-search instead of " +
				"reusing records that can be finalized")
		}
		if pol != nil {
			c.spinSink += pol.backoff(int(tries) - 1)
		}
	}
}
