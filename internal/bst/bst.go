// Package bst implements a non-blocking external binary search tree on top
// of the LLX/SCX primitives, the application family the paper's Section 6
// names as the payoff of the new primitives (and that Brown, Ellen and
// Ruppert develop fully in their follow-on tree-update template work).
//
// The tree is external: internal nodes are pure routers with two children,
// leaves carry the key/value pairs. Every update replaces a small constant-
// size portion of the tree with one SCX that swings a single child pointer
// and finalizes exactly the removed nodes, so the structure inherits
// linearizability and the non-blocking property from the primitives the
// same way the paper's multiset does:
//
//   - Put of a new key replaces a leaf with an internal node carrying the
//     new leaf and the old leaf (SCX on ⟨parent⟩, nothing finalized).
//   - Put of an existing key replaces the old leaf (SCX on ⟨parent, leaf⟩,
//     finalizing the old leaf).
//   - Delete replaces the parent with a fresh copy of the leaf's sibling
//     (SCX on ⟨grandparent, parent, children in left-right order⟩,
//     finalizing the parent, the removed leaf and the sibling).
//
// Every child pointer the SCXs write is a fresh (or recycled) node, so no
// field is ever given a value it held before — the paper's Section 4.1
// rule. That is why Delete copies the sibling: the sibling itself may be
// exactly what the grandparent's field held before the parent was spliced
// in, and a helper stalled at that splice's update CAS would otherwise
// re-install the removed parent.
//
// Searches traverse child pointers with plain reads, justified by the
// paper's Proposition 2, under an epoch guard (removed nodes are recycled
// through internal/reclaim, not left to the garbage collector); updates run
// on the internal/template engine, which owns the retry loop, backoff and
// contention counters. Child links are raw de-boxed pointer words, and every
// node — leaf or router — embeds its Data-record with the same two-pointer
// layout, so one reclaim pool recycles all of them interchangeably. The
// tree uses the standard two-sentinel construction (keys ∞₁ < ∞₂ above
// every real key) so that every real leaf has an internal parent and
// grandparent.
//
// Methods never take a *core.Process: plain calls acquire a pooled Handle
// per operation, and hot paths bind one with Attach.
package bst

import (
	"cmp"
	"fmt"
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

// Mutable-field indices of a node's Data-record (pointer fields).
const (
	fieldLeft  = 0
	fieldRight = 1
)

// sentinel ranks; larger ranks compare above every real key.
type sentinel int8

const (
	sentReal sentinel = iota
	sentInf1
	sentInf2
)

// node is one tree node. All node fields except the record's child pointers
// are immutable while published, as the template requires. Leaves and
// routers share one layout (two pointer fields, unused by leaves) so the
// reclaim pool can recycle any node as any other.
type node[K cmp.Ordered, V any] struct {
	rec  core.Record
	key  K
	sent sentinel
	leaf bool
	val  V // meaningful only for real leaves
}

// child reads the dir child of internal node n with a plain read.
func (n *node[K, V]) child(dir int) *node[K, V] {
	return (*node[K, V])(n.rec.Ptr(dir))
}

// keyLess reports whether a search for key descends left at n, i.e.
// key < n.key with sentinel keys above all real keys.
func (n *node[K, V]) keyLess(key K) bool {
	if n.sent != sentReal {
		return true
	}
	return key < n.key
}

// matches reports whether leaf n holds exactly key.
func (n *node[K, V]) matches(key K) bool {
	return n.sent == sentReal && n.key == key
}

// Tree is a non-blocking ordered map from K to V. The zero value is not
// usable; create one with New. All methods are safe for concurrent use.
type Tree[K cmp.Ordered, V any] struct {
	root     *node[K, V]
	pool     *reclaim.Pool[node[K, V]]
	policy   template.Policy
	putStats template.OpStats
	delStats template.OpStats
}

// New creates an empty tree: a root router with key ∞₂ whose children are
// the ∞₁ and ∞₂ sentinel leaves. The root is the sole entry point and is
// never finalized.
func New[K cmp.Ordered, V any]() *Tree[K, V] {
	t := &Tree[K, V]{pool: reclaim.NewPool[node[K, V]]()}
	// Rewind records as nodes enter the freelists, releasing the
	// descriptors their info fields would otherwise park (see reclaim).
	t.pool.SetOnFree(func(n *node[K, V]) { n.rec.Recycle() })
	var zeroK K
	var zeroV V
	l1 := t.newLeaf(nil, zeroK, sentInf1, zeroV)
	l2 := t.newLeaf(nil, zeroK, sentInf2, zeroV)
	t.root = t.newInternal(nil, zeroK, sentInf2, l1, l2)
	return t
}

// alloc recycles or allocates a blank node; every node has the same
// two-pointer record layout.
func (t *Tree[K, V]) alloc(l *reclaim.Local) *node[K, V] {
	n := t.pool.Get(l)
	if n == nil {
		n = &node[K, V]{}
		core.InitRecord(&n.rec, 0, 2)
	} else {
		n.rec.Recycle()
	}
	return n
}

// setInternal and setLeaf are the single places node state is set, shared
// by the constructors and the retry paths that re-arm a node built by an
// earlier attempt.
func setInternal[K cmp.Ordered, V any](n *node[K, V], key K, sent sentinel, left, right *node[K, V]) {
	var zeroV V
	n.key, n.sent, n.leaf, n.val = key, sent, false, zeroV
	n.rec.SetPtr(fieldLeft, unsafe.Pointer(left))
	n.rec.SetPtr(fieldRight, unsafe.Pointer(right))
}

func setLeaf[K cmp.Ordered, V any](n *node[K, V], key K, sent sentinel, val V) {
	n.key, n.sent, n.leaf, n.val = key, sent, true, val
	n.rec.SetPtr(fieldLeft, nil)
	n.rec.SetPtr(fieldRight, nil)
}

// copyOf re-arms n as a copy of src, whose child pointers are taken from
// srcSnap, src's linked LLX snapshot.
func copyOf[K cmp.Ordered, V any](n, src *node[K, V], srcSnap *core.Fields) {
	if src.leaf {
		setLeaf(n, src.key, src.sent, src.val)
		return
	}
	setInternal(n, src.key, src.sent,
		(*node[K, V])(srcSnap.Ptr(fieldLeft)), (*node[K, V])(srcSnap.Ptr(fieldRight)))
}

func (t *Tree[K, V]) newInternal(l *reclaim.Local, key K, sent sentinel, left, right *node[K, V]) *node[K, V] {
	n := t.alloc(l)
	setInternal(n, key, sent, left, right)
	return n
}

func (t *Tree[K, V]) newLeaf(l *reclaim.Local, key K, sent sentinel, val V) *node[K, V] {
	n := t.alloc(l)
	setLeaf(n, key, sent, val)
	return n
}

// SetPolicy installs the retry policy updates back off with; nil (the
// default) retries immediately. Call before sharing the tree.
func (t *Tree[K, V]) SetPolicy(p template.Policy) { t.policy = p }

// EngineStats returns the template engine's aggregate attempt/failure
// counters across all update operations.
func (t *Tree[K, V]) EngineStats() template.Counters {
	return t.putStats.Snapshot().Add(t.delStats.Snapshot())
}

// StatsByOp returns the engine counters broken out per operation.
func (t *Tree[K, V]) StatsByOp() map[string]template.Counters {
	return map[string]template.Counters{
		"put":    t.putStats.Snapshot(),
		"delete": t.delStats.Snapshot(),
	}
}

// Session is a Handle-bound view of a Tree: the hot-path API for a
// goroutine performing many operations. Not safe for concurrent use; any
// number of Sessions may share the Tree.
type Session[K cmp.Ordered, V any] struct {
	t *Tree[K, V]
	h *core.Handle
}

// Attach binds a Session to h. The caller keeps ownership of h.
func (t *Tree[K, V]) Attach(h *core.Handle) Session[K, V] {
	return Session[K, V]{t: t, h: h}
}

// Handle returns the Session's Handle.
func (s Session[K, V]) Handle() *core.Handle { return s.h }

// search walks from the root to the leaf whose key range covers key,
// returning the leaf l, its parent p and grandparent g (g is nil iff p is
// the root). Plain reads only; the caller must hold an epoch guard.
func (t *Tree[K, V]) search(key K) (g, p, l *node[K, V]) {
	l = t.root
	for !l.leaf {
		g = p
		p = l
		if l.keyLess(key) {
			l = l.child(fieldLeft)
		} else {
			l = l.child(fieldRight)
		}
	}
	return g, p, l
}

// Get returns the value stored for key, if any, using a pooled Handle; see
// Session.Get for the hot-path form.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	h := core.AcquireHandle()
	v, ok := t.Attach(h).Get(key)
	h.Release()
	return v, ok
}

// Contains reports whether key is present.
func (t *Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Put maps key to val using a pooled Handle; see Session.Put for the
// hot-path form.
func (t *Tree[K, V]) Put(key K, val V) bool {
	h := core.AcquireHandle()
	ok := t.Attach(h).Put(key, val)
	h.Release()
	return ok
}

// Delete removes key's mapping using a pooled Handle; see Session.Delete
// for the hot-path form.
func (t *Tree[K, V]) Delete(key K) (V, bool) {
	h := core.AcquireHandle()
	v, ok := t.Attach(h).Delete(key)
	h.Release()
	return v, ok
}

// Get returns the value stored for key, if any.
func (s Session[K, V]) Get(key K) (V, bool) {
	template.Enter(s.h)
	defer template.Exit(s.h)
	_, _, l := s.t.search(key)
	if l.matches(key) {
		return l.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (s Session[K, V]) Contains(key K) bool {
	_, ok := s.Get(key)
	return ok
}

// childDir returns the field index of p's child that snapshot snap shows as
// c, or -1 if c is no longer a child of p in snap.
func childDir[K cmp.Ordered, V any](snap *core.Fields, c *node[K, V]) int {
	if (*node[K, V])(snap.Ptr(fieldLeft)) == c {
		return fieldLeft
	}
	if (*node[K, V])(snap.Ptr(fieldRight)) == c {
		return fieldRight
	}
	return -1
}

// Put maps key to val, returning true if key was newly inserted and false if
// an existing mapping was replaced.
func (s Session[K, V]) Put(key K, val V) bool {
	t := s.t
	var n1, n2 *node[K, V] // built at most once per operation; retries retarget
	return template.Run(s.h, t.policy, &t.putStats, func(c *template.Ctx) (bool, template.Action) {
		_, p, l := t.search(key)
		localp, st := c.LLXF(&p.rec)
		if st != core.LLXOK {
			return false, template.Retry
		}
		dir := childDir(localp, l)
		if dir == -1 {
			return false, template.Retry // tree moved under us; re-search
		}
		// Every Put path publishes a fresh leaf; build (or re-arm the
		// recycled) n1 once for this attempt.
		if n1 == nil {
			n1 = t.newLeaf(c.Reclaim(), key, sentReal, val)
		} else {
			setLeaf(n1, key, sentReal, val)
		}
		if l.matches(key) {
			// Replace the existing leaf, finalizing it.
			if _, st := c.LLXF(&l.rec); st != core.LLXOK {
				return false, template.Retry
			}
			// New value: a fresh leaf.
			if c.SCXPtr([]*core.Record{&p.rec, &l.rec}, []*core.Record{&l.rec},
				p.rec.PtrField(dir), unsafe.Pointer(n1)) {
				if n2 != nil {
					t.pool.Release(c.Reclaim(), n2)
				}
				t.pool.Retire(c.Reclaim(), l)
				return false, template.Done
			}
			return false, template.Retry
		}
		// Splice an internal node carrying the new leaf and the old leaf.
		if n2 == nil {
			n2 = t.alloc(c.Reclaim())
		}
		switch {
		case l.sent != sentReal:
			// key < l: the router inherits l's sentinel key.
			setInternal(n2, l.key, l.sent, n1, l)
		case key < l.key:
			setInternal(n2, l.key, sentReal, n1, l)
		default:
			setInternal(n2, key, sentReal, l, n1)
		}
		// New value: a fresh router.
		if c.SCXPtr([]*core.Record{&p.rec}, nil, p.rec.PtrField(dir),
			unsafe.Pointer(n2)) {
			return true, template.Done
		}
		return false, template.Retry
	})
}

// delResult carries Delete's two return values through the engine.
type delResult[V any] struct {
	val V
	ok  bool
}

// Delete removes key's mapping, returning the removed value and true, or the
// zero value and false if key was absent.
func (s Session[K, V]) Delete(key K) (V, bool) {
	t := s.t
	var fresh *node[K, V] // the sibling's copy, built at most once per operation
	res := template.Run(s.h, t.policy, &t.delStats, func(c *template.Ctx) (delResult[V], template.Action) {
		g, p, l := t.search(key)
		if !l.matches(key) {
			if fresh != nil {
				t.pool.Release(c.Reclaim(), fresh) // never published
			}
			return delResult[V]{}, template.Done
		}
		// A real leaf always has an internal parent and grandparent thanks
		// to the sentinel construction.
		localg, st := c.LLXF(&g.rec)
		if st != core.LLXOK {
			return delResult[V]{}, template.Retry
		}
		pdir := childDir(localg, p)
		if pdir == -1 {
			return delResult[V]{}, template.Retry
		}
		localp, st := c.LLXF(&p.rec)
		if st != core.LLXOK {
			return delResult[V]{}, template.Retry
		}
		ldir := childDir(localp, l)
		if ldir == -1 {
			return delResult[V]{}, template.Retry
		}
		sib := (*node[K, V])(localp.Ptr(1 - ldir)) // sibling, per the snapshot
		if sib == nil {
			return delResult[V]{}, template.Retry
		}
		if _, st := c.LLXF(&l.rec); st != core.LLXOK {
			return delResult[V]{}, template.Retry
		}
		locals, st := c.LLXF(&sib.rec)
		if st != core.LLXOK {
			return delResult[V]{}, template.Retry
		}
		if fresh == nil {
			fresh = t.alloc(c.Reclaim())
		}
		copyOf(fresh, sib, locals)
		// V lists g, p, then p's children in left-right order — an order
		// consistent with a preorder walk, satisfying the Section 4.1
		// total-order constraint.
		var v []*core.Record
		if ldir == fieldLeft {
			v = []*core.Record{&g.rec, &p.rec, &l.rec, &sib.rec}
		} else {
			v = []*core.Record{&g.rec, &p.rec, &sib.rec, &l.rec}
		}
		// New value: a fresh copy of the sibling, never the sibling itself.
		if c.SCXPtr(v, []*core.Record{&p.rec, &l.rec, &sib.rec}, g.rec.PtrField(pdir),
			unsafe.Pointer(fresh)) {
			val := l.val
			t.pool.Retire(c.Reclaim(), p)
			t.pool.Retire(c.Reclaim(), l)
			t.pool.Retire(c.Reclaim(), sib)
			return delResult[V]{val: val, ok: true}, template.Done
		}
		return delResult[V]{}, template.Retry
	})
	return res.val, res.ok
}

// Len returns the number of real keys observed by one traversal. On a
// quiescent tree it is exact; under concurrency it is a weakly consistent
// count (each counted leaf was present at some point, Proposition 2).
func (t *Tree[K, V]) Len() int {
	n := 0
	template.Guarded(func() { t.walk(t.root, func(l *node[K, V]) { n++ }) })
	return n
}

// Keys returns the real keys in ascending order, with the same consistency
// caveat as Len.
func (t *Tree[K, V]) Keys() []K {
	var keys []K
	template.Guarded(func() { t.walk(t.root, func(l *node[K, V]) { keys = append(keys, l.key) }) })
	return keys
}

// Items returns the key -> value contents, with the same consistency caveat
// as Len.
func (t *Tree[K, V]) Items() map[K]V {
	items := make(map[K]V)
	template.Guarded(func() { t.walk(t.root, func(l *node[K, V]) { items[l.key] = l.val }) })
	return items
}

// walk visits real leaves in key order.
func (t *Tree[K, V]) walk(n *node[K, V], visit func(l *node[K, V])) {
	if n == nil {
		return
	}
	if n.leaf {
		if n.sent == sentReal {
			visit(n)
		}
		return
	}
	t.walk(n.child(fieldLeft), visit)
	t.walk(n.child(fieldRight), visit)
}

// CheckInvariants verifies the external-BST shape on a quiescent tree: every
// internal node has two children, keys respect the search-tree order with
// sentinels outermost, and no reachable node is finalized. It returns an
// error describing the first violation. Intended for tests.
func (t *Tree[K, V]) CheckInvariants() error {
	var err error
	template.Guarded(func() { err = t.check(t.root, nil, nil) })
	return err
}

// check validates the subtree at n against the half-open key interval
// [lo, hi) expressed as optional reference nodes: a router sends keys
// strictly below its own key left and keys at or above it right.
func (t *Tree[K, V]) check(n, lo, hi *node[K, V]) error {
	if n == nil {
		return fmt.Errorf("nil child reachable")
	}
	if n.rec.Finalized() {
		return fmt.Errorf("reachable node (key %v, leaf=%v) is finalized", n.key, n.leaf)
	}
	if lo != nil && nodeLess(n, lo) {
		return fmt.Errorf("node %v violates lower bound %v", n.key, lo.key)
	}
	if hi != nil && !nodeLess(n, hi) {
		return fmt.Errorf("node %v violates upper bound %v", n.key, hi.key)
	}
	if n.leaf {
		return nil
	}
	if err := t.check(n.child(fieldLeft), lo, n); err != nil {
		return err
	}
	return t.check(n.child(fieldRight), n, hi)
}

// nodeLess orders nodes by (real keys, then ∞₁, then ∞₂), strictly.
func nodeLess[K cmp.Ordered, V any](a, b *node[K, V]) bool {
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.sent != sentReal {
		return false // equal sentinels are not strictly ordered
	}
	return a.key < b.key
}
