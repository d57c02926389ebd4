// Package reclaim is the DEBRA-style epoch-based memory-reclamation layer
// that makes the repository's update paths GC-free in steady state: retired
// nodes and SCX descriptors are recycled through typed freelists instead of
// being abandoned to the garbage collector.
//
// The scheme is the classic three-epoch one, adapted to Go's memory model,
// with DEBRA's key refinement: the per-operation announcement is amortized
// away.
//
//   - A Domain holds a global epoch counter and a fixed array of padded
//     announcement slots. Each Local (one per core.Handle/Process) owns a
//     slot; the slot stays PUBLISHED ACROSS OPERATIONS and is refreshed to
//     the current epoch only every quiesceEvery operations, at an explicit
//     Quiesce, or when a freelist runs dry — so the steady-state Enter/Exit
//     pair is a local depth bump with no shared stores at all.
//   - Retire appends an object to the Local's limbo list, stamped with a
//     FRESH read of the global epoch (never a cached one: the stamp must be
//     taken after the object became unreachable, which is what bounds the
//     announcements of any process still holding a reference).
//   - The global epoch advances from E to E+1 only when every active
//     announcement equals E, so while a process stays announced at a the
//     epoch can never exceed a+1. A stale announcement (one that has not
//     been refreshed for up to quiesceEvery operations, or that belongs to
//     an idle Local that never quiesced) therefore DELAYS advancement —
//     limbo caps overflow to the GC, so memory stays bounded — but never
//     breaks the grace-period argument, which only ever relies on
//     announcements capping the epoch.
//   - A limbo entry stamped e is recycled once the global epoch reaches
//     e+2: any process that obtained a reference before the retire last
//     refreshed its announcement at e or earlier, so it must have passed a
//     quiescent point (and thereby dropped the reference) before the epoch
//     could reach e+2.
//
// Entries may carry a ready predicate (SCX descriptors use one: "no record's
// info field points at this descriptor any more"). Such entries get a
// SECOND full grace period measured from the moment the predicate is first
// observed true. The re-stamp is load-bearing: a descriptor is typically
// retired long before it is displaced from the info fields of the records it
// froze, so its retire stamp says nothing about helpers that learned of it
// afterwards; the post-ready stamp does, because every such helper has been
// continuously announced since before the displacement was observed (see
// DESIGN.md, "Why recycling cannot resurrect a descriptor").
//
// Announcement slots are recycled: Local.Release returns the slot to a
// lock-free free list inside the Domain, and a GC finalizer scavenges the
// slots of Locals that were simply dropped, so `assigned` tracks peak
// concurrency instead of growing monotonically and advance scans never
// iterate dead slots forever.
//
// Because Go is garbage-collected, every overflow path is safe by
// construction: when a limbo list or freelist hits its cap, or a ready
// predicate never passes, entries are simply dropped — the GC keeps them
// alive as long as anything references them and collects them afterwards.
// Reclamation here is a performance mechanism; it is never required for
// safety, so a stalled (parked or merely stale) process bounds throughput of
// recycling, not correctness.
package reclaim

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// MaxSlots is the number of announcement slots in a Domain. Locals beyond
// this many fall back to a shared overflow counter that blocks epoch
// advancement while any of them is inside an operation: reclamation slows
// down, but stays safe.
const MaxSlots = 1024

const (
	// limboCap bounds a Local's limbo list; the oldest entries beyond it
	// are dropped to the garbage collector. Sized to absorb the retirement
	// burst a writer accumulates while a peer sits descheduled on a stale
	// announcement for a whole scheduler timeslice (epoch advance is blocked
	// for the slice, so nothing graduates): at ~10k retirements per
	// timeslice, a cap of 4096 forced thousands of drops — and matching GC
	// cycles — per slice on an oversubscribed box, which is exactly the
	// config the GOMAXPROCS-scaling benchmarks run.
	limboCap = 16384
	// freeCap bounds each per-pool freelist; surplus recycled objects are
	// dropped to the garbage collector rather than hoarded. It must be able
	// to hold the recycling burst that graduates when a long-blocked epoch
	// finally advances (see limboCap): a freelist much smaller than the
	// limbo it drains throws the surplus to the GC and forces subsequent
	// allocations fresh from the heap.
	freeCap = 8192
	// quiesceEvery is the operation cadence at which a Local refreshes its
	// published announcement to the current epoch (and attempts an epoch
	// advance + drain). Between refreshes the announcement goes stale by
	// design; the staleness bound is what makes Enter/Exit store-free.
	quiesceEvery = 64
	// refreshRounds bounds how many refresh→advance→drain iterations one
	// quiescent point performs. More than one round lets a lone Local walk
	// the epoch far enough to free its own recently retired entries (each
	// entry needs the epoch to move two past its stamp); the cap keeps a
	// quiescent point O(1).
	refreshRounds = 3
	// parkedCap bounds the parked list (ready-gated entries whose
	// predicate has not passed yet, e.g. descriptors still installed in a
	// rarely-written record's info field); overflow drops to the GC. Sized
	// like limboCap: descriptors park at the same rate nodes retire.
	parkedCap = 16384
	// parkScanBatch bounds how many parked entries one drain re-examines,
	// so a large parked population cannot make a drain expensive.
	parkScanBatch = 32
)

// slot is one padded announcement word: 0 when inactive, epoch<<1|1 while
// its Local is published. nextFree links the slot into the Domain's free
// list while it is unowned; the pad keeps unrelated Locals' announcements
// off each other's cache lines.
type slot struct {
	v        atomic.Uint64
	nextFree atomic.Uint32 // index+1 of the next free slot; owned by the free list
	_        [52]byte
}

// Domain is one reclamation scope: a global epoch and the announcement
// slots of every Local attached to it. The package-level Default domain is
// shared by all of core's processes; separate Domains exist for tests.
//
// Layout: epoch and lastScan are the two words CASed by concurrent
// advancers, and the slot array is stored to by every refresh; each gets
// its own cache line so an advance CAS does not invalidate the line a
// refresh is about to read (epoch) or the bookkeeping counters nobody hot
// touches (assigned/overflow/freeHead).
type Domain struct {
	epoch atomic.Uint64
	_     [56]byte
	// lastScan is e+1 once an advance scan for epoch e has started; it
	// rate-limits opportunistic advance attempts (N cores need not scan
	// the slot array N times for the same epoch).
	lastScan  atomic.Uint64
	_         [56]byte
	assigned  atomic.Uint32 // high-water mark of slots handed out
	overflow  atomic.Int64  // active Locals without a slot
	advances  atomic.Uint64 // successful epoch advances, for tests/stats
	attempts  atomic.Uint64 // advance scans started (successful or not)
	scavenged atomic.Uint64 // slots reclaimed by the GC finalizer, for tests
	freeHead  atomic.Uint64 // versioned head of the free-slot list: version<<32 | index+1
	// Aggregate depth gauges, delta-folded from the Locals at their
	// quiescent points (refresh/Quiesce/Park) and unreported at release —
	// the observability plane reads domain-wide depths without touching any
	// Local's single-owner state.
	limboDepth  atomic.Int64
	parkedDepth atomic.Int64
	freeDepth   atomic.Int64
	_           [56]byte // round the header to a line boundary so slots[0] starts fresh
	slots       [MaxSlots]slot
}

// NewDomain returns a fresh domain. The epoch starts at 1 so that stamp
// arithmetic never sees zero.
func NewDomain() *Domain {
	d := &Domain{}
	d.epoch.Store(1)
	return d
}

// Default is the domain shared by every core.Process in the program.
var Default = NewDomain()

// Epoch returns the current global epoch; for tests and diagnostics.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// Advances returns the number of successful epoch advances; for tests.
func (d *Domain) Advances() uint64 { return d.advances.Load() }

// Scavenged returns the number of announcement slots reclaimed from
// dropped Locals by the GC finalizer; for tests.
func (d *Domain) Scavenged() uint64 { return d.scavenged.Load() }

// Gauges is a point-in-time snapshot of the domain's progress surface: the
// numbers that tell whether DEBRA's amortized-announcement machinery is
// healthy (epoch moving, no announcement left behind) or stalling (lag
// growing, limbo piling up). The observability plane and cmd/stress report
// it.
type Gauges struct {
	Epoch       uint64 // current global epoch
	OldestLag   uint64 // current epoch minus the oldest active announcement
	ActiveSlots int    // announcement slots currently published
	Overflow    int64  // active Locals past MaxSlots (block every advance)
	Advances    uint64 // successful epoch advances
	Attempts    uint64 // advance scans started (Advances/Attempts = hit rate)
	Scavenged   uint64 // slots reclaimed from dropped Locals by the finalizer
	Limbo       int64  // entries awaiting their grace period (incl. pending)
	Parked      int64  // ready-gated entries whose predicate has not passed
	Free        int64  // fully recycled objects sitting in freelists
}

// Gauges snapshots the domain. The depth gauges lag each Local's live state
// by at most one quiescent point (they are delta-folded at refresh/Quiesce/
// Park); the epoch fields are exact at their individual load instants.
func (d *Domain) Gauges() Gauges {
	g := Gauges{
		Epoch:     d.epoch.Load(),
		Overflow:  d.overflow.Load(),
		Advances:  d.advances.Load(),
		Attempts:  d.attempts.Load(),
		Scavenged: d.scavenged.Load(),
		Limbo:     d.limboDepth.Load(),
		Parked:    d.parkedDepth.Load(),
		Free:      d.freeDepth.Load(),
	}
	g.OldestLag, g.ActiveSlots = d.oldestLag(g.Epoch)
	return g
}

// oldestLag scans the assigned announcement slots: how many are published,
// and how far the oldest published epoch trails e. A lag that stays >= 1
// across scrapes is the signature of a stale announcement pinning the
// epoch (an un-quiesced idle Local, or a descheduled process).
func (d *Domain) oldestLag(e uint64) (lag uint64, active int) {
	n := int(d.assigned.Load())
	if n > MaxSlots {
		n = MaxSlots
	}
	oldest := e
	for i := 0; i < n; i++ {
		v := d.slots[i].v.Load()
		if v&1 != 1 {
			continue
		}
		active++
		if ep := v >> 1; ep < oldest {
			oldest = ep
		}
	}
	return e - oldest, active
}

// AwaitMobile waits until the domain's epoch can advance again, running the
// garbage collector so the finalizer can scavenge announcement slots of
// dropped Locals. It reports whether mobility was restored within the
// timeout; false means some REACHABLE Local is holding a published (stale)
// announcement and should be quiesced or released.
//
// This is a test/diagnostic helper: allocation-freeness and recycling
// assertions in this repository's tests share one process and one Default
// domain, so a Local leaked by an earlier test would otherwise pin the
// epoch under them. Production code never needs it — a live system either
// keeps operating (refresh cadence), quiesces, or drops its Locals to the
// GC, which is exactly what this helper accelerates.
func (d *Domain) AwaitMobile(timeout time.Duration) bool {
	probe := NewLocal(d)
	defer probe.Release()
	deadline := time.Now().Add(timeout)
	for {
		before := d.epoch.Load()
		probe.Enter()
		probe.Exit()
		probe.Quiesce()
		if d.epoch.Load() > before {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// tryAdvance advances the global epoch by one if every active announcement
// equals the current epoch and no overflow Local is active. It reports
// whether the epoch moved. Failure is always benign: some process is still
// announced under an older epoch (possibly just stale — it will refresh
// within quiesceEvery of its operations).
//
// force distinguishes a caller that just changed the world (refreshed its
// own announcement, or unpublished it) from an opportunistic one: an
// opportunistic attempt is skipped entirely when a scan for the current
// epoch has already started, because nothing has changed that could make a
// repeat succeed. The scan itself early-exits as soon as the epoch moves
// under it, and aborts at the first stale slot, so failed scans stay cheap.
func (d *Domain) tryAdvance(force bool) bool {
	e := d.epoch.Load()
	if d.overflow.Load() != 0 {
		return false
	}
	last := d.lastScan.Load()
	if last > e && !force {
		return false // this epoch has already been scanned; nothing new to learn
	}
	if last <= e && !d.lastScan.CompareAndSwap(last, e+1) {
		return false // another advancer claimed the scan for this epoch
	}
	d.attempts.Add(1)
	n := int(d.assigned.Load())
	if n > MaxSlots {
		n = MaxSlots
	}
	for i := 0; i < n; i++ {
		v := d.slots[i].v.Load()
		if v&1 == 1 && v>>1 != e {
			return false
		}
		if i&63 == 63 && d.epoch.Load() != e {
			return false // someone else advanced; the rest of the scan is moot
		}
	}
	if d.epoch.CompareAndSwap(e, e+1) {
		d.advances.Add(1)
		return true
	}
	return false
}

// claimSlot hands l an announcement slot: a recycled one from the free list
// when available, else the next never-used one. It reports false when the
// domain is out of slots (the caller falls back to the overflow counter).
func (l *Local) claimSlot() bool {
	d := l.dom
	for {
		h := d.freeHead.Load()
		idx := uint32(h)
		if idx == 0 {
			break // free list empty
		}
		next := d.slots[idx-1].nextFree.Load()
		nh := (h>>32+1)<<32 | uint64(next)
		if d.freeHead.CompareAndSwap(h, nh) {
			l.slot = &d.slots[idx-1]
			l.slotIdx = idx - 1
			runtime.SetFinalizer(l, (*Local).scavenge)
			return true
		}
	}
	// The load-before-Add keeps exhausted domains cheap: once assigned has
	// crossed MaxSlots it never comes back down (it is a high-water mark;
	// recycling goes through the free list), so overflow Locals stop
	// hammering the counter.
	if d.assigned.Load() < MaxSlots {
		if i := d.assigned.Add(1); i <= MaxSlots {
			l.slot = &d.slots[i-1]
			l.slotIdx = i - 1
			runtime.SetFinalizer(l, (*Local).scavenge)
			return true
		}
	}
	return false
}

// releaseSlot unpublishes l's announcement and pushes its slot onto the
// domain's free list. The versioned head makes the push/pop pair ABA-safe:
// a pop that read a stale head fails its CAS because the version moved,
// even if the same index is back on top.
func (l *Local) releaseSlot() {
	d, s, idx := l.dom, l.slot, l.slotIdx
	l.slot = nil
	l.published = 0
	s.v.Store(0)
	for {
		h := d.freeHead.Load()
		s.nextFree.Store(uint32(h))
		nh := (h>>32+1)<<32 | uint64(idx+1)
		if d.freeHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

// scavenge is the GC finalizer for slot-holding Locals: a Local that was
// dropped without Release would otherwise leave its last announcement
// published forever, pinning the domain's epoch. By the time the finalizer
// runs the Local is unreachable, so no goroutine can be inside one of its
// operations (an operating goroutine keeps its Local reachable from its
// stack) and unpublishing is safe. The only exception is a goroutine that
// died mid-operation; its depth is still positive and the slot must stay
// pinned — safety over throughput.
func (l *Local) scavenge() {
	if l.depth != 0 || l.slot == nil {
		return
	}
	l.unfoldDepths()
	l.releaseSlot()
	l.dom.scavenged.Add(1)
}

// entry is one retired object awaiting its grace period.
type entry struct {
	p      unsafe.Pointer
	epoch  uint64 // global epoch at retire (or at ready-observation, once re-stamped)
	id     uint32 // destination pool
	ready  func(unsafe.Pointer) bool
	onFree func(unsafe.Pointer)
}

// flist is one per-pool freelist of fully reclaimed objects.
type flist struct {
	items []unsafe.Pointer
}

// Stats are a Local's reclamation counters (single-owner; read them from the
// owning goroutine or quiescently).
type Stats struct {
	Retired  uint64 // objects handed to Retire
	Recycled uint64 // objects that reached a freelist
	Reused   uint64 // freelist pops that satisfied an allocation
	Dropped  uint64 // objects abandoned to the GC (caps, stuck ready checks)
}

// Local is the per-process reclamation state: announcement slot, limbo list
// and freelists. A Local is confined to its owning Process/Handle and must
// not be used concurrently.
type Local struct {
	dom     *Domain
	slot    *slot
	slotIdx uint32
	// published is the epoch value currently stored in the slot (0 when
	// unpublished). It is the owner's cache of its own announcement: the
	// steady-state Enter reads it instead of any shared word.
	published uint64
	depth     int32
	// overflowing is set while a slotless Local holds the overflow counter;
	// such Locals keep the classic per-operation protocol (the counter has
	// no epoch to go stale, so holding it across operations would block
	// advancement forever).
	overflowing bool
	ops         uint64
	// needAdvance asks the next quiescent point to refresh immediately: a
	// freelist ran dry mid-operation and recycling is worth accelerating.
	needAdvance bool

	// limbo holds freshly retired entries in FIFO stamp order. Ready-gated
	// entries whose predicate has not passed when their grace elapses move
	// to parked; entries whose predicate has passed move to pending for a
	// second grace period measured from the observation (see drain).
	limbo    []entry
	head     int
	pending  []entry
	phead    int
	parked   []entry
	parkScan int

	free  map[uint32]*flist
	stats Stats
	// freeLen tracks the total item count across the freelists, and the
	// rep* fields remember what this Local last folded into the domain's
	// aggregate depth gauges (foldDepths publishes only the deltas, so the
	// hot quiescent points usually compare and skip).
	freeLen   int
	repLimbo  int
	repParked int
	repFree   int
}

// foldDepths publishes the Local's current limbo/parked/freelist depths
// into the domain's aggregate gauges as deltas since the last fold. Called
// at quiescent points only (single-owner state); when nothing changed it is
// three compares and no shared store.
func (l *Local) foldDepths() {
	d := l.dom
	if limbo := (len(l.limbo) - l.head) + (len(l.pending) - l.phead); limbo != l.repLimbo {
		d.limboDepth.Add(int64(limbo - l.repLimbo))
		l.repLimbo = limbo
	}
	if parked := len(l.parked); parked != l.repParked {
		d.parkedDepth.Add(int64(parked - l.repParked))
		l.repParked = parked
	}
	if l.freeLen != l.repFree {
		d.freeDepth.Add(int64(l.freeLen - l.repFree))
		l.repFree = l.freeLen
	}
}

// unfoldDepths retracts this Local's contribution to the aggregate gauges;
// the release/scavenge counterpart of foldDepths (whatever the Local still
// holds is abandoned to the GC with it, so it must leave the gauges too).
func (l *Local) unfoldDepths() {
	d := l.dom
	if l.repLimbo != 0 {
		d.limboDepth.Add(-int64(l.repLimbo))
		l.repLimbo = 0
	}
	if l.repParked != 0 {
		d.parkedDepth.Add(-int64(l.repParked))
		l.repParked = 0
	}
	if l.repFree != 0 {
		d.freeDepth.Add(-int64(l.repFree))
		l.repFree = 0
	}
}

// NewLocal returns a Local attached to d (nil means the Default domain).
// The announcement slot is claimed lazily on first Enter.
func NewLocal(d *Domain) *Local {
	if d == nil {
		d = Default
	}
	return &Local{dom: d}
}

// Domain returns the domain the Local announces in.
func (l *Local) Domain() *Domain { return l.dom }

// Stats returns the Local's reclamation counters.
func (l *Local) Stats() Stats { return l.stats }

// Active reports whether the Local is currently inside an Enter/Exit pair.
func (l *Local) Active() bool { return l.depth > 0 }

// LimboLen returns the number of objects currently awaiting reclamation
// (fresh limbo, post-ready pending, and parked); for tests.
func (l *Local) LimboLen() int {
	return (len(l.limbo) - l.head) + (len(l.pending) - l.phead) + len(l.parked)
}

// Enter marks the start of an operation that may hold references into
// shared structures. In steady state it is a depth bump and one local
// comparison: the announcement published by an earlier operation (or
// refresh) is still in the slot and still caps the global epoch, so nothing
// needs to be stored. Only a Local whose slot is unpublished — first use,
// or resuming after Quiesce/Park — pays the publication store. Enter/Exit
// pairs nest; only the outermost pair is an operation boundary.
func (l *Local) Enter() {
	l.depth++
	if l.depth > 1 {
		return
	}
	if l.published != 0 {
		return // already announced; staleness is bounded by the Exit cadence
	}
	l.publish()
}

// publish stores the current epoch into the slot and re-reads the epoch
// until they agree. A plain load-then-store would leave a window in which
// this Local is still invisible while the epoch advances past the loaded
// value — grace periods could then elapse "around" a stale announcement and
// the reuse-safety proofs (which assume an announcement at a caps the
// global epoch at a+1 from the moment publish returns) would not hold.
// After this loop, the store of the final value e precedes (in the seq-cst
// order) a load observing the epoch still equal to e, so any advance to e+2
// must first scan and see this slot active at e.
func (l *Local) publish() {
	if l.slot == nil && !l.claimSlot() {
		// The overflow counter is an atomic RMW: it is globally visible the
		// moment it completes, and it blocks every advance, so it needs no
		// epoch revalidation.
		l.dom.overflow.Add(1)
		l.overflowing = true
		return
	}
	e := l.dom.epoch.Load()
	for {
		l.slot.v.Store(e<<1 | 1)
		e2 := l.dom.epoch.Load()
		if e2 == e {
			break
		}
		e = e2
	}
	l.published = e
}

// Exit marks the end of an operation. Every reference obtained since the
// matching Enter must be dead before Exit is called. The announcement is
// deliberately NOT cleared: it stays published (going stale) until the
// refresh cadence, a dry freelist, or an explicit Quiesce renews it, which
// is what makes the steady-state Exit store-free.
func (l *Local) Exit() {
	l.depth--
	if l.depth > 0 {
		return
	}
	if l.depth < 0 {
		panic("reclaim: Exit without matching Enter")
	}
	if l.overflowing {
		l.dom.overflow.Add(-1)
		l.overflowing = false
	}
	l.ops++
	if l.needAdvance || l.ops%quiesceEvery == 0 {
		l.refresh()
	}
}

// refresh is the quiescent point: the Local holds no references (depth 0),
// so re-publishing its announcement at the CURRENT epoch is safe — any
// reference it obtains afterwards is obtained at or after the new value.
// (Mid-operation the same store would be unsound: raising the announcement
// from a to a+1 while holding references stamped a would let their grace
// period elapse under us.) Each round publishes, attempts an advance, and
// drains; extra rounds only run while this Local is the one unblocking the
// epoch, letting a lone Local walk its own retirees through their two-epoch
// grace without waiting for future operations.
func (l *Local) refresh() {
	l.needAdvance = false
	for i := 0; i < refreshRounds; i++ {
		if l.slot != nil {
			if e := l.dom.epoch.Load(); e != l.published {
				for {
					l.slot.v.Store(e<<1 | 1)
					e2 := l.dom.epoch.Load()
					if e2 == e {
						break
					}
					e = e2
				}
				l.published = e
			}
		}
		advanced := l.dom.tryAdvance(true)
		if l.head < len(l.limbo) || l.phead < len(l.pending) || len(l.parked) > 0 {
			l.drain()
		}
		if !advanced || (l.head >= len(l.limbo) && l.phead >= len(l.pending)) {
			break
		}
	}
	l.foldDepths()
}

// Quiesce is an explicit quiescent point: the caller declares that it holds
// no references into any shared structure and may not operate again for a
// while. The announcement is unpublished entirely — an idle Local with a
// published (stale) announcement blocks epoch advancement domain-wide, so
// anything that goes to sleep between operations (a server connection
// waiting for its next request, a worker parked on a channel) should
// Quiesce first. The next Enter republishes. Quiesce also makes a forced
// advance attempt and drains, so the caller's own retirees keep moving.
// It must be called at operation boundaries only (depth 0).
func (l *Local) Quiesce() {
	if l.depth != 0 {
		panic("reclaim: Quiesce inside an operation")
	}
	l.needAdvance = false
	if l.slot != nil && l.published != 0 {
		l.slot.v.Store(0)
		l.published = 0
	}
	l.dom.tryAdvance(true)
	if l.head < len(l.limbo) || l.phead < len(l.pending) || len(l.parked) > 0 {
		l.drain()
	}
	l.foldDepths()
}

// Park unpublishes the announcement without the advance attempt or drain:
// the cheap form of Quiesce used when a Handle returns to its pool. Parking
// mid-operation is a caller bug; Park ignores it (the announcement stays,
// which is always safe) rather than crash a release path.
func (l *Local) Park() {
	if l.depth != 0 {
		return
	}
	if l.slot != nil && l.published != 0 {
		l.slot.v.Store(0)
		l.published = 0
	}
	l.dom.tryAdvance(false)
	l.foldDepths()
}

// Release ends this Local's participation in the domain: it quiesces and
// returns the announcement slot to the domain's free list, where the next
// slotless Local will claim it. The Local must not be used afterwards (a
// stray Enter would claim a fresh slot and silently resurrect it).
// Ownership rule: a slot is owned by exactly one Local from claim to
// release; only the owner ever stores to slot.v while it owns it, and the
// free list hands a released slot to at most one next owner (the versioned
// head makes the handoff ABA-safe).
func (l *Local) Release() {
	if l.depth != 0 {
		panic("reclaim: Release inside an operation")
	}
	l.Quiesce()
	l.unfoldDepths()
	if l.slot != nil {
		runtime.SetFinalizer(l, nil)
		l.releaseSlot()
	}
}

// retire places p in limbo, destined for pool id, stamped with a fresh read
// of the global epoch. ready, if non-nil, gates recycling: the entry gets a
// fresh grace period measured from the first drain that observes ready true.
func (l *Local) retire(p unsafe.Pointer, id uint32, ready func(unsafe.Pointer) bool, onFree func(unsafe.Pointer)) {
	l.stats.Retired++
	l.limbo = append(l.limbo, entry{
		p: p, epoch: l.dom.epoch.Load(), id: id, ready: ready, onFree: onFree,
	})
	if len(l.limbo)-l.head > limboCap {
		// A stalled announcement elsewhere is blocking the epoch; bound our
		// memory by abandoning the oldest entry to the garbage collector,
		// which is always safe.
		l.head++
		l.stats.Dropped++
		l.compact()
	}
}

// drain advances retired entries through their grace periods.
//
// Plain entries free once the global epoch passes their retire stamp by 2.
// Ready-gated entries (descriptors) take the long way: grace after retire,
// then the predicate must pass — an entry whose predicate fails parks until
// a later drain sees it pass — and then a SECOND grace period, measured
// from the observation and padded by one extra epoch. The pad matters: a
// helper can learn a descriptor's address as an expected info value out of
// another descriptor built just before the displacement was observed, and
// such a helper may have announced one epoch after the observation; the
// +1 stamp keeps the reuse strictly outside every such helper's window
// (see DESIGN.md, "Why recycling cannot resurrect a descriptor").
func (l *Local) drain() {
	e := l.dom.epoch.Load()
	for l.head < len(l.limbo) {
		ent := l.limbo[l.head]
		if ent.epoch+2 > e {
			break // too young; everything behind it is younger still
		}
		l.head++
		if ent.ready != nil {
			if ent.ready(ent.p) {
				// Stamp from a FRESH epoch read taken after the observation
				// (the epoch may have advanced since this drain began; a
				// stale read would erase the pad and allow reuse one epoch
				// early — inside the window of a helper that learned the
				// address just before the displacement).
				ent.epoch = l.dom.epoch.Load() + 1
				ent.ready = nil
				l.pending = append(l.pending, ent)
			} else {
				l.park(ent)
			}
			continue
		}
		l.toFree(ent)
	}
	for l.phead < len(l.pending) {
		ent := l.pending[l.phead]
		if ent.epoch+2 > e {
			break
		}
		l.phead++
		l.toFree(ent)
	}
	l.scanParked()
	l.compact()
}

// park holds a ready-gated entry whose predicate has not passed yet (for a
// descriptor: it is still installed in some record's info field, which can
// last until that record is next written). Overflow drops to the GC.
func (l *Local) park(ent entry) {
	if len(l.parked) >= parkedCap {
		l.stats.Dropped++
		return
	}
	l.parked = append(l.parked, ent)
}

// scanParked re-examines up to parkScanBatch parked entries, moving those
// whose predicate now passes into pending with a fresh padded stamp.
func (l *Local) scanParked() {
	n := len(l.parked)
	if n == 0 {
		return
	}
	batch := parkScanBatch
	if batch > n {
		batch = n
	}
	for i := 0; i < batch; i++ {
		if l.parkScan >= len(l.parked) {
			l.parkScan = 0
		}
		ent := l.parked[l.parkScan]
		if ent.ready(ent.p) {
			// Fresh epoch read after the observation; see drain.
			ent.epoch = l.dom.epoch.Load() + 1
			ent.ready = nil
			l.pending = append(l.pending, ent)
			last := len(l.parked) - 1
			l.parked[l.parkScan] = l.parked[last]
			l.parked = l.parked[:last]
		} else {
			l.parkScan++
		}
	}
}

// toFree pushes an entry that survived its grace period onto its pool's
// freelist, counting it as recycled. The pool's onFree hook runs first —
// the object is provably unreachable here, which is exactly when a node's
// record may rewind its info pointer (releasing the descriptor it would
// otherwise pin in parked; see Pool.SetOnFree).
func (l *Local) toFree(ent entry) {
	if ent.onFree != nil {
		ent.onFree(ent.p)
	}
	if l.pushFree(ent.id, ent.p) {
		l.stats.Recycled++
	} else {
		l.stats.Dropped++
	}
}

// pushFree appends p to pool id's freelist, reporting false when the cap
// drops it instead. It does not touch the stats: Recycled means "survived
// a grace period", which Pool.Release's never-published objects did not.
func (l *Local) pushFree(id uint32, p unsafe.Pointer) bool {
	if l.free == nil {
		l.free = make(map[uint32]*flist)
	}
	fl := l.free[id]
	if fl == nil {
		fl = &flist{}
		l.free[id] = fl
	}
	if len(fl.items) >= freeCap {
		return false
	}
	fl.items = append(fl.items, p)
	l.freeLen++
	return true
}

// compact reclaims the drained prefixes of the limbo slices once they
// dominate.
func (l *Local) compact() {
	if l.head > 64 && l.head*2 >= len(l.limbo) {
		n := copy(l.limbo, l.limbo[l.head:])
		clear(l.limbo[n:])
		l.limbo = l.limbo[:n]
		l.head = 0
	}
	if l.phead > 64 && l.phead*2 >= len(l.pending) {
		n := copy(l.pending, l.pending[l.phead:])
		clear(l.pending[n:])
		l.pending = l.pending[:n]
		l.phead = 0
	}
}

// get pops a reclaimed object destined for pool id, or nil. When the
// freelist is dry it accelerates recycling: at an operation boundary it
// runs a full quiescent refresh; inside an operation it may only attempt an
// advance (its own announcement cannot move — references are live — but
// other Locals' refreshes may already allow the epoch forward) and flags
// the next Exit to refresh immediately instead of waiting out the cadence.
// In a balanced steady state (every operation retires about as much as it
// allocates) this keeps the freelist primed and the path allocation-free.
func (l *Local) get(id uint32) unsafe.Pointer {
	for attempt := 0; ; attempt++ {
		if fl := l.free[id]; fl != nil && len(fl.items) > 0 {
			p := fl.items[len(fl.items)-1]
			fl.items = fl.items[:len(fl.items)-1]
			l.freeLen--
			l.stats.Reused++
			return p
		}
		if attempt > 0 ||
			(l.head >= len(l.limbo) && l.phead >= len(l.pending) && len(l.parked) == 0) {
			return nil
		}
		if l.depth == 0 {
			l.refresh()
		} else {
			l.needAdvance = true
			l.dom.tryAdvance(true)
			l.drain()
		}
	}
}

// Pool hands out and takes back objects of one type, backed by the
// per-Local freelists. Create one Pool per object kind (typically one per
// structure instance) and share it freely: the Pool itself is stateless
// apart from its identity.
type Pool[T any] struct {
	id     uint32
	ready  func(unsafe.Pointer) bool
	onFree func(unsafe.Pointer)
}

// nextPoolID allocates pool identities; 0 is never used.
var nextPoolID atomic.Uint32

// NewPool returns a pool for T with no ready predicate (plain grace-period
// recycling, the right default for structure nodes).
func NewPool[T any]() *Pool[T] {
	return &Pool[T]{id: nextPoolID.Add(1)}
}

// NewPoolReady returns a pool whose retired objects must additionally pass
// ready (observed under the re-stamp rule) before recycling; used by SCX
// descriptors.
func NewPoolReady[T any](ready func(*T) bool) *Pool[T] {
	p := &Pool[T]{id: nextPoolID.Add(1)}
	p.ready = func(q unsafe.Pointer) bool { return ready((*T)(q)) }
	return p
}

// SetOnFree installs a hook run on each retired object at the moment it
// enters a freelist — after its grace period, so the object is provably
// unreachable. Structures use it to rewind a finalized node's record
// (info pointer, marked bit) without waiting for the node's next reuse:
// a finalized record's info field otherwise designates the finalizing SCX
// descriptor indefinitely, parking that descriptor's own recycling. Call
// once, before the pool is shared.
func (p *Pool[T]) SetOnFree(fn func(*T)) {
	p.onFree = func(q unsafe.Pointer) { fn((*T)(q)) }
}

// Get returns a recycled *T, or nil when none is available (the caller
// allocates). The object's contents are whatever its previous life left
// there; the caller must fully reinitialize it before publication.
func (p *Pool[T]) Get(l *Local) *T {
	if l == nil {
		return nil
	}
	return (*T)(l.get(p.id))
}

// Retire hands x over for recycling after its grace period. x must already
// be unreachable from the shared structure (unlinked before Retire), and the
// call must happen while l is Entered, or at least after the unlink has
// globally happened.
func (p *Pool[T]) Retire(l *Local, x *T) {
	if l == nil || x == nil {
		return
	}
	l.retire(unsafe.Pointer(x), p.id, p.ready, p.onFree)
}

// Release returns a never-published object (for example a node built by an
// update attempt that ended up not needing it) straight to the freelist: no
// grace period is required because no other process ever saw it, and it is
// not counted as Recycled (that counter means "survived a grace period").
func (p *Pool[T]) Release(l *Local, x *T) {
	if l == nil || x == nil {
		return
	}
	l.pushFree(p.id, unsafe.Pointer(x))
}
