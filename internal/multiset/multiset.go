// Package multiset implements the paper's Section 5 running example: a
// linearizable, non-blocking multiset backed by a sorted singly-linked list
// of Data-records, built entirely from the LLX/SCX primitives of
// internal/core (Figure 6 pseudocode).
//
// The multiset supports Get(key) (number of occurrences), Insert(key, count),
// and Delete(key, count). Searches traverse the list with plain reads, which
// is sound by the paper's Proposition 2; updates run on the internal/template
// engine — each attempt LLXs the affected nodes and commits with a single
// SCX that swings one next pointer (or bumps one count), finalizing exactly
// the nodes the update removes (Lemma 4), which is what makes the structure
// linearizable and non-blocking (Theorem 6).
//
// Storage is fully de-boxed: a node embeds its Data-record, whose mutable
// fields are one uint64 word (the count) and one raw pointer (the next
// link), so neither reads nor updates box values or assert types. Nodes
// removed by Delete are recycled through internal/reclaim after an epoch
// grace period instead of being abandoned to the garbage collector, which
// is why every read path — including the handle-free convenience methods —
// announces an epoch before touching the list.
//
// Methods never take a *core.Process: plain calls acquire a pooled Handle
// per operation, and hot paths bind one with Attach:
//
//	h := core.AcquireHandle()
//	defer h.Release()
//	s := m.Attach(h)
//	s.Insert(k, 1)
package multiset

import (
	"cmp"
	"fmt"
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

// Mutable-field indices of a node's Data-record.
const (
	fieldCount = 0 // word 0: occurrences of key
	fieldNext  = 0 // ptr 0: successor in the sorted list
)

// nodeKind distinguishes the two sentinel nodes from interior nodes; the
// paper uses keys -inf and +inf, which have no value representation for a
// generic ordered key type.
type nodeKind int

const (
	kindHead nodeKind = iota + 1 // key -inf
	kindInterior
	kindTail // key +inf
)

// node is one list node. key and kind are immutable while the node is
// published; count and next live in the node's embedded Data-record as
// mutable fields (one word, one pointer — node plus record are a single
// allocation, recycled together).
type node[K cmp.Ordered] struct {
	rec  core.Record
	key  K
	kind nodeKind
}

// next reads n's next pointer with a plain atomic read.
func (n *node[K]) next() *node[K] {
	return (*node[K])(n.rec.Ptr(fieldNext))
}

// count reads n's count with a plain atomic read.
func (n *node[K]) count() int {
	return int(n.rec.Word(fieldCount))
}

// before reports whether n's key is strictly less than key, i.e. the search
// for key must move past n. The head sentinel precedes every key; the tail
// sentinel follows every key.
func (n *node[K]) before(key K) bool {
	switch n.kind {
	case kindHead:
		return true
	case kindTail:
		return false
	default:
		return n.key < key
	}
}

// matches reports whether n is an interior node holding exactly key.
func (n *node[K]) matches(key K) bool {
	return n.kind == kindInterior && n.key == key
}

// Multiset is a non-blocking multiset of keys of type K. The zero value is
// not usable; create one with New. All methods are safe for concurrent use.
type Multiset[K cmp.Ordered] struct {
	head     *node[K]
	pool     *reclaim.Pool[node[K]]
	policy   template.Policy
	insStats template.OpStats
	delStats template.OpStats
}

// New creates an empty multiset. As in the paper, the structure always holds
// a head sentinel (key -inf) pointing at a tail sentinel (key +inf); the head
// is the sole entry point and is never finalized.
func New[K cmp.Ordered]() *Multiset[K] {
	m := &Multiset[K]{pool: reclaim.NewPool[node[K]]()}
	// Rewind a node's record the moment it enters a freelist (it is
	// unreachable there), so the descriptor that finalized it stops being
	// designated by its info field and can itself recycle.
	m.pool.SetOnFree(func(n *node[K]) { n.rec.Recycle() })
	var zero K
	tail := m.newNode(nil, kindTail, zero, 0, nil)
	m.head = m.newNode(nil, kindHead, zero, 0, tail)
	return m
}

// newNode builds (or recycles, when l is an announced reclaim state with a
// primed freelist) a fully initialized, unpublished node.
func (m *Multiset[K]) newNode(l *reclaim.Local, kind nodeKind, key K, count int, next *node[K]) *node[K] {
	n := m.pool.Get(l)
	if n == nil {
		n = &node[K]{}
		core.InitRecord(&n.rec, 1, 1)
	} else {
		n.rec.Recycle()
	}
	initNode(n, kind, key, count, next)
	return n
}

// initNode (re)initializes an unpublished node — the single place node
// state is set, shared by the constructor and the retry paths that re-arm
// a node built by an earlier attempt.
func initNode[K cmp.Ordered](n *node[K], kind nodeKind, key K, count int, next *node[K]) {
	n.kind, n.key = kind, key
	n.rec.SetWord(fieldCount, uint64(count))
	n.rec.SetPtr(fieldNext, unsafe.Pointer(next))
}

// SetPolicy installs the retry policy updates back off with; nil (the
// default) retries immediately. Call before sharing the multiset.
func (m *Multiset[K]) SetPolicy(p template.Policy) { m.policy = p }

// EngineStats returns the template engine's aggregate attempt/failure
// counters across all update operations.
func (m *Multiset[K]) EngineStats() template.Counters {
	return m.insStats.Snapshot().Add(m.delStats.Snapshot())
}

// StatsByOp returns the engine counters broken out per operation.
func (m *Multiset[K]) StatsByOp() map[string]template.Counters {
	return map[string]template.Counters{
		"insert": m.insStats.Snapshot(),
		"delete": m.delStats.Snapshot(),
	}
}

// Session is a Handle-bound view of a Multiset: the hot-path API for a
// goroutine that performs many operations. A Session is as cheap as a pair
// of pointers; it is not safe for concurrent use (the Handle is exclusive),
// but any number of Sessions may operate on the shared Multiset.
type Session[K cmp.Ordered] struct {
	m *Multiset[K]
	h *core.Handle
}

// Attach binds a Session to h. The caller keeps ownership of h and releases
// it when done.
func (m *Multiset[K]) Attach(h *core.Handle) Session[K] {
	return Session[K]{m: m, h: h}
}

// Handle returns the Session's Handle.
func (s Session[K]) Handle() *core.Handle { return s.h }

// search traverses the list from head by plain reads, returning the first
// node r with key <= r.key and its predecessor p (Figure 6, lines 6-13).
// Postcondition: p.key < key <= r.key (with sentinels ordered as -inf/+inf).
// The caller must hold an epoch guard (template.Enter or a Run attempt).
func (m *Multiset[K]) search(key K) (r, p *node[K]) {
	p = m.head
	r = p.next()
	for r.before(key) {
		p = r
		r = r.next()
	}
	return r, p
}

// Get returns the number of occurrences of key (Figure 6, lines 1-5) using
// a pooled Handle; see Session.Get for the hot-path form.
func (m *Multiset[K]) Get(key K) int {
	h := core.AcquireHandle()
	n := m.Attach(h).Get(key)
	h.Release()
	return n
}

// Contains reports whether key occurs at least once.
func (m *Multiset[K]) Contains(key K) bool {
	return m.Get(key) > 0
}

// Insert adds count occurrences of key using a pooled Handle; see
// Session.Insert for the hot-path form. count must be positive.
func (m *Multiset[K]) Insert(key K, count int) {
	h := core.AcquireHandle()
	m.Attach(h).Insert(key, count)
	h.Release()
}

// Delete removes count occurrences of key using a pooled Handle; see
// Session.Delete for the hot-path form and semantics.
func (m *Multiset[K]) Delete(key K, count int) bool {
	h := core.AcquireHandle()
	ok := m.Attach(h).Delete(key, count)
	h.Release()
	return ok
}

// Get returns the number of occurrences of key. The search is plain reads
// (Proposition 2) under an epoch guard, which is what keeps it safe while
// deleted nodes are being recycled.
func (s Session[K]) Get(key K) int {
	template.Enter(s.h)
	r, _ := s.m.search(key)
	res := 0
	if r.matches(key) {
		res = r.count()
	}
	template.Exit(s.h)
	return res
}

// Contains reports whether key occurs at least once.
func (s Session[K]) Contains(key K) bool { return s.Get(key) > 0 }

// Insert adds count occurrences of key (Figure 6, lines 14-24). count must
// be positive.
func (s Session[K]) Insert(key K, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("multiset: Insert with non-positive count %d", count))
	}
	m := s.m
	var fresh *node[K] // built at most once per operation; reused across attempts
	template.Run(s.h, m.policy, &m.insStats, func(c *template.Ctx) (struct{}, template.Action) {
		r, p := m.search(key)
		if r.matches(key) {
			// Key present: bump r.count in place (Figure 5(b)).
			localr, st := c.LLXF(&r.rec)
			if st != core.LLXOK {
				return struct{}{}, template.Retry
			}
			// New value: count + n with n > 0; a node's count only grows.
			if c.SCXWord([]*core.Record{&r.rec}, nil,
				r.rec.WordField(fieldCount), localr.Word(fieldCount)+uint64(count)) {
				if fresh != nil {
					m.pool.Release(c.Reclaim(), fresh) // never published
				}
				return struct{}{}, template.Done
			}
			return struct{}{}, template.Retry
		}
		// Key absent: splice a new node between p and r (Figure 5(a)).
		localp, st := c.LLXF(&p.rec)
		if st != core.LLXOK {
			return struct{}{}, template.Retry
		}
		if (*node[K])(localp.Ptr(fieldNext)) != r {
			return struct{}{}, template.Retry
		}
		if fresh == nil {
			fresh = m.newNode(c.Reclaim(), kindInterior, key, count, r)
		} else {
			initNode(fresh, kindInterior, key, count, r) // retarget for this attempt
		}
		// New value: a fresh node.
		if c.SCXPtr([]*core.Record{&p.rec}, nil, p.rec.PtrField(fieldNext),
			unsafe.Pointer(fresh)) {
			return struct{}{}, template.Done
		}
		return struct{}{}, template.Retry
	})
}

// Delete removes count occurrences of key and reports whether it did; if
// fewer than count occurrences are present it removes nothing and returns
// false (Figure 6, lines 25-36). count must be positive.
func (s Session[K]) Delete(key K, count int) bool {
	if count <= 0 {
		panic(fmt.Sprintf("multiset: Delete with non-positive count %d", count))
	}
	m := s.m
	var fresh *node[K] // replacement/copy node, reused across attempts
	return template.Run(s.h, m.policy, &m.delStats, func(c *template.Ctx) (bool, template.Action) {
		release := func() {
			if fresh != nil {
				m.pool.Release(c.Reclaim(), fresh)
			}
		}
		r, p := m.search(key)
		localp, stp := c.LLXF(&p.rec)
		if stp != core.LLXOK {
			return false, template.Retry
		}
		localr, str := c.LLXF(&r.rec)
		if str != core.LLXOK {
			return false, template.Retry
		}
		if (*node[K])(localp.Ptr(fieldNext)) != r {
			return false, template.Retry
		}
		if !r.matches(key) || localr.Word(fieldCount) < uint64(count) {
			release()
			return false, template.Done
		}
		if localr.Word(fieldCount) > uint64(count) {
			// Replace r with a reduced-count copy, finalizing r
			// (Figure 5(d)).
			rnext := (*node[K])(localr.Ptr(fieldNext))
			reduced := int(localr.Word(fieldCount)) - count
			if fresh == nil {
				fresh = m.newNode(c.Reclaim(), kindInterior, r.key, reduced, rnext)
			} else {
				initNode(fresh, kindInterior, r.key, reduced, rnext)
			}
			// New value: a fresh reduced-count copy of r.
			if c.SCXPtr([]*core.Record{&p.rec, &r.rec}, []*core.Record{&r.rec},
				p.rec.PtrField(fieldNext), unsafe.Pointer(fresh)) {
				m.pool.Retire(c.Reclaim(), r)
				return true, template.Done
			}
			return false, template.Retry
		}
		// Exact count: unlink r entirely. To avoid the ABA problem on p.next,
		// r's successor is replaced by a fresh copy and both r and the old
		// successor are finalized (Figure 5(c)).
		rnext := (*node[K])(localr.Ptr(fieldNext)) // non-nil: r is interior
		localrn, st := c.LLXF(&rnext.rec)
		if st != core.LLXOK {
			return false, template.Retry
		}
		if fresh == nil {
			fresh = m.newNode(c.Reclaim(), rnext.kind, rnext.key,
				int(localrn.Word(fieldCount)), (*node[K])(localrn.Ptr(fieldNext)))
		} else {
			initNode(fresh, rnext.kind, rnext.key,
				int(localrn.Word(fieldCount)), (*node[K])(localrn.Ptr(fieldNext)))
		}
		// New value: a fresh copy of r's successor, never the successor
		// itself (p.next may have held it before r was spliced in).
		if c.SCXPtr([]*core.Record{&p.rec, &r.rec, &rnext.rec},
			[]*core.Record{&r.rec, &rnext.rec},
			p.rec.PtrField(fieldNext), unsafe.Pointer(fresh)) {
			m.pool.Retire(c.Reclaim(), r)
			m.pool.Retire(c.Reclaim(), rnext)
			return true, template.Done
		}
		return false, template.Retry
	})
}

// guardedWalk runs visit over every interior node observed by one traversal
// with plain reads, under a pooled handle's epoch guard.
func (m *Multiset[K]) guardedWalk(visit func(n *node[K])) {
	template.Guarded(func() {
		for n := m.head.next(); n != nil && n.kind != kindTail; n = n.next() {
			visit(n)
		}
	})
}

// Items returns the key -> count contents of the multiset as observed by a
// single traversal with plain reads. The traversal is not atomic: under
// concurrent updates it is only guaranteed that every reported node was in
// the multiset at some time during the call (Proposition 2). On a quiescent
// multiset it is exact.
func (m *Multiset[K]) Items() map[K]int {
	items := make(map[K]int)
	m.guardedWalk(func(n *node[K]) { items[n.key] = n.count() })
	return items
}

// Len returns the number of distinct keys observed by a single traversal,
// with the same consistency caveat as Items.
func (m *Multiset[K]) Len() int {
	n := 0
	m.guardedWalk(func(*node[K]) { n++ })
	return n
}

// TotalCount returns the sum of all counts observed by a single traversal,
// with the same consistency caveat as Items.
func (m *Multiset[K]) TotalCount() int {
	total := 0
	m.guardedWalk(func(n *node[K]) { total += n.count() })
	return total
}

// Keys returns the distinct keys in ascending order, with the same
// consistency caveat as Items.
func (m *Multiset[K]) Keys() []K {
	var keys []K
	m.guardedWalk(func(n *node[K]) { keys = append(keys, n.key) })
	return keys
}

// ReclaimStats returns the session handle's reclamation counters: how many
// retired nodes/descriptors it has recycled and reused. Intended for tests
// and instrumentation.
func (s Session[K]) ReclaimStats() reclaim.Stats {
	return s.h.Process().Reclaimer().Stats()
}

// CheckInvariants verifies the paper's Invariant 3 on a quiescent multiset:
// the list is strictly sorted, terminates at the tail sentinel, interior
// counts are positive, and no reachable node is finalized. It returns an
// error describing the first violation found. Intended for tests.
func (m *Multiset[K]) CheckInvariants() (err error) {
	template.Guarded(func() { err = m.checkInvariants() })
	return err
}

func (m *Multiset[K]) checkInvariants() error {
	if m.head.rec.Finalized() {
		return fmt.Errorf("head sentinel is finalized")
	}
	prev := m.head
	cur := m.head.next()
	for {
		if cur == nil {
			return fmt.Errorf("list does not terminate at the tail sentinel")
		}
		if cur.rec.Finalized() {
			return fmt.Errorf("reachable node (key %v) is finalized", cur.key)
		}
		if cur.kind == kindTail {
			return nil
		}
		if prev.kind == kindInterior && cur.key <= prev.key {
			return fmt.Errorf("keys out of order: %v then %v", prev.key, cur.key)
		}
		if cur.count() <= 0 {
			return fmt.Errorf("interior node %v has non-positive count %d", cur.key, cur.count())
		}
		prev, cur = cur, cur.next()
	}
}
