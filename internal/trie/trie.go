// Package trie implements a non-blocking binary Patricia trie on the
// LLX/SCX primitives. The paper's related work (Section 2) points to
// non-blocking Patricia tries as a product of the same cooperative
// technique; this implementation shows the LLX/SCX template carrying over
// unchanged: searches are plain reads (Proposition 2) under an epoch guard,
// every update is one SCX that swings a single child pointer and finalizes
// exactly the removed nodes, and the retry loop itself lives in
// internal/template like every other structure here.
//
// Keys are uint64, compared most-significant-bit first. Internal nodes are
// pure routers labelled with the bit index where their subtrees diverge
// (path compression: bit indices strictly increase downward); leaves carry
// the key/value pairs. The trie's shape is a deterministic function of its
// key set, so no rebalancing is ever needed — which is exactly why it is a
// popular companion structure to the paper's BSTs.
//
// Child links are raw de-boxed pointer words; removed nodes are recycled
// through internal/reclaim (leaves, routers and the empty sentinel share
// one two-pointer record layout, so one pool serves all three).
//
// No child field is ever given a value it held before (the paper's Section
// 4.1 rule, which keeps a stalled helper's update CAS from landing late):
// an empty trie is a fresh empty sentinel rather than a nil root, and a
// delete installs a fresh copy of the removed leaf's sibling, finalizing
// the sibling, instead of swinging the grandparent back to it.
//
// Methods never take a *core.Process: plain calls acquire a pooled Handle
// per operation, and hot paths bind one with Attach.
package trie

import (
	"fmt"
	"math/bits"
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

// Mutable-field indices (pointer fields). The root record has a single
// child field; internal nodes have two.
const (
	fieldChild0 = 0 // bit == 0 side (also the root's only child field)
	fieldChild1 = 1
)

// node is one trie node. All fields except the record's child pointers are
// immutable while published. The record is embedded; leaves and routers
// share the two-pointer layout so the reclaim pool recycles them
// interchangeably.
type node[V any] struct {
	rec   core.Record
	leaf  bool
	empty bool   // the empty-trie sentinel: the root's child when no key is present
	bit   int    // internal: diverging bit index, 0 (MSB) .. 63
	key   uint64 // leaf: the key
	val   V      // leaf: the value
}

// child reads child dir of internal node n with a plain read.
func (n *node[V]) child(dir int) *node[V] {
	return (*node[V])(n.rec.Ptr(dir))
}

// bitOf extracts bit i of key, MSB first.
func bitOf(key uint64, i int) int {
	return int(key>>(63-i)) & 1
}

// diffBit returns the index of the most significant bit where a and b
// differ; a must differ from b.
func diffBit(a, b uint64) int {
	return bits.LeadingZeros64(a ^ b)
}

// Trie is a non-blocking map from uint64 keys to V. The zero value is not
// usable; create one with New. All methods are safe for concurrent use.
type Trie[V any] struct {
	root     *core.Record // entry point: one mutable field, the trie's root node or empty sentinel
	pool     *reclaim.Pool[node[V]]
	policy   template.Policy
	putStats template.OpStats
	delStats template.OpStats
}

// New creates an empty trie. The entry-point record is never finalized.
func New[V any]() *Trie[V] {
	t := &Trie[V]{
		root: core.NewTypedRecord(0, 1),
		pool: reclaim.NewPool[node[V]](),
	}
	// Rewind records as nodes enter the freelists, releasing the
	// descriptors their info fields would otherwise park (see reclaim).
	t.pool.SetOnFree(func(n *node[V]) { n.rec.Recycle() })
	empty := t.alloc(nil)
	setEmpty(empty)
	t.root.SetPtr(fieldChild0, unsafe.Pointer(empty))
	return t
}

// alloc recycles or allocates a blank node.
func (t *Trie[V]) alloc(l *reclaim.Local) *node[V] {
	n := t.pool.Get(l)
	if n == nil {
		n = &node[V]{}
		core.InitRecord(&n.rec, 0, 2)
	} else {
		n.rec.Recycle()
	}
	return n
}

// setInternal, setLeaf and setEmpty are the single places node state is
// set, shared by the constructors and the retry paths that re-arm a node
// built by an earlier attempt.
func setInternal[V any](n *node[V], bit int, child0, child1 *node[V]) {
	var zeroV V
	n.leaf, n.empty, n.bit, n.key, n.val = false, false, bit, 0, zeroV
	n.rec.SetPtr(fieldChild0, unsafe.Pointer(child0))
	n.rec.SetPtr(fieldChild1, unsafe.Pointer(child1))
}

func setLeaf[V any](n *node[V], key uint64, val V) {
	n.leaf, n.empty, n.bit, n.key, n.val = true, false, 0, key, val
	n.rec.SetPtr(fieldChild0, nil)
	n.rec.SetPtr(fieldChild1, nil)
}

func setEmpty[V any](n *node[V]) {
	var zeroV V
	n.leaf, n.empty, n.bit, n.key, n.val = false, true, 0, 0, zeroV
	n.rec.SetPtr(fieldChild0, nil)
	n.rec.SetPtr(fieldChild1, nil)
}

// copyOf re-arms n as a copy of src, whose child pointers are taken from
// srcSnap, src's linked LLX snapshot.
func copyOf[V any](n, src *node[V], srcSnap *core.Fields) {
	if src.leaf {
		setLeaf(n, src.key, src.val)
		return
	}
	setInternal(n, src.bit,
		(*node[V])(srcSnap.Ptr(fieldChild0)), (*node[V])(srcSnap.Ptr(fieldChild1)))
}

func (t *Trie[V]) newInternal(l *reclaim.Local, bit int, child0, child1 *node[V]) *node[V] {
	n := t.alloc(l)
	setInternal(n, bit, child0, child1)
	return n
}

func (t *Trie[V]) newLeaf(l *reclaim.Local, key uint64, val V) *node[V] {
	n := t.alloc(l)
	setLeaf(n, key, val)
	return n
}

// SetPolicy installs the retry policy updates back off with; nil (the
// default) retries immediately. Call before sharing the trie.
func (t *Trie[V]) SetPolicy(p template.Policy) { t.policy = p }

// EngineStats returns the template engine's aggregate attempt/failure
// counters across all update operations.
func (t *Trie[V]) EngineStats() template.Counters {
	return t.putStats.Snapshot().Add(t.delStats.Snapshot())
}

// StatsByOp returns the engine counters broken out per operation.
func (t *Trie[V]) StatsByOp() map[string]template.Counters {
	return map[string]template.Counters{
		"put":    t.putStats.Snapshot(),
		"delete": t.delStats.Snapshot(),
	}
}

// Session is a Handle-bound view of a Trie: the hot-path API for a
// goroutine performing many operations. Not safe for concurrent use; any
// number of Sessions may share the Trie.
type Session[V any] struct {
	t *Trie[V]
	h *core.Handle
}

// Attach binds a Session to h. The caller keeps ownership of h.
func (t *Trie[V]) Attach(h *core.Handle) Session[V] {
	return Session[V]{t: t, h: h}
}

// Handle returns the Session's Handle.
func (s Session[V]) Handle() *core.Handle { return s.h }

// top reads the trie's root node (the empty sentinel when empty).
func (t *Trie[V]) top() *node[V] {
	return (*node[V])(t.root.Ptr(fieldChild0))
}

// Get returns the value stored for key, if any, using a pooled Handle; see
// Session.Get for the hot-path form.
func (t *Trie[V]) Get(key uint64) (V, bool) {
	h := core.AcquireHandle()
	v, ok := t.Attach(h).Get(key)
	h.Release()
	return v, ok
}

// Contains reports whether key is present.
func (t *Trie[V]) Contains(key uint64) bool {
	_, ok := t.Get(key)
	return ok
}

// Put maps key to val using a pooled Handle; see Session.Put for the
// hot-path form.
func (t *Trie[V]) Put(key uint64, val V) bool {
	h := core.AcquireHandle()
	ok := t.Attach(h).Put(key, val)
	h.Release()
	return ok
}

// Delete removes key's mapping using a pooled Handle; see Session.Delete
// for the hot-path form.
func (t *Trie[V]) Delete(key uint64) (V, bool) {
	h := core.AcquireHandle()
	v, ok := t.Attach(h).Delete(key)
	h.Release()
	return v, ok
}

// Get returns the value stored for key, if any.
func (s Session[V]) Get(key uint64) (V, bool) {
	template.Enter(s.h)
	defer template.Exit(s.h)
	t := s.t
	var zero V
	if n := walkToLeaf(t.top(), key); n != nil && n.key == key {
		return n.val, true
	}
	return zero, false
}

// Contains reports whether key is present.
func (s Session[V]) Contains(key uint64) bool {
	_, ok := s.Get(key)
	return ok
}

// walkToLeaf follows key's bits from n to a leaf; nil if n is the empty
// sentinel.
func walkToLeaf[V any](n *node[V], key uint64) *node[V] {
	for !n.leaf && !n.empty {
		n = n.child(bitOf(key, n.bit))
	}
	if n.empty {
		return nil
	}
	return n
}

// Put maps key to val, returning true if key was newly inserted and false
// if an existing mapping was replaced.
func (s Session[V]) Put(key uint64, val V) bool {
	t := s.t
	var nl, inner *node[V] // built at most once per operation; retries retarget
	leaf := func(c *template.Ctx) *node[V] {
		if nl == nil {
			nl = t.newLeaf(c.Reclaim(), key, val)
		}
		return nl
	}
	return template.Run(s.h, t.policy, &t.putStats, func(c *template.Ctx) (bool, template.Action) {
		// Phase 1: probe for a leaf sharing key's routed prefix.
		top := t.top()
		if top.empty {
			// Empty trie: replace the sentinel with the first leaf,
			// finalizing the sentinel.
			localr, st := c.LLXF(t.root)
			if st != core.LLXOK {
				return false, template.Retry
			}
			if (*node[V])(localr.Ptr(fieldChild0)) != top {
				return false, template.Retry // no longer empty; re-run
			}
			if _, st := c.LLXF(&top.rec); st != core.LLXOK {
				return false, template.Retry
			}
			// New value: a fresh leaf.
			if c.SCXPtr([]*core.Record{t.root, &top.rec}, []*core.Record{&top.rec},
				t.root.PtrField(fieldChild0), unsafe.Pointer(leaf(c))) {
				if inner != nil {
					t.pool.Release(c.Reclaim(), inner)
				}
				t.pool.Retire(c.Reclaim(), top)
				return true, template.Done
			}
			return false, template.Retry
		}
		probe := walkToLeaf(top, key)
		if probe.key == key {
			// Replace the existing leaf in place, finalizing it.
			if t.replaceLeaf(c, key, leaf(c)) {
				if inner != nil {
					t.pool.Release(c.Reclaim(), inner)
				}
				return false, template.Done
			}
			return false, template.Retry
		}
		// Phase 2: splice a router at the diverging bit b: descend to the
		// first edge whose child is a leaf or routes at or below b.
		b := diffBit(key, probe.key)
		parentRec, parentDir, cur := t.descendTo(key, b)
		if cur == nil {
			return false, template.Retry // structure moved; re-run
		}
		localp, st := c.LLXF(parentRec)
		if st != core.LLXOK {
			return false, template.Retry
		}
		if (*node[V])(localp.Ptr(parentDir)) != cur {
			return false, template.Retry
		}
		// Revalidate b against the live structure: every key ever placed
		// under cur shares cur's routing prefix, so one representative leaf
		// pins the whole subtree's divergence from key. A stale probe (e.g.
		// its leaf was deleted meanwhile) fails these checks and retries.
		rep := walkToLeaf(cur, key)
		if rep == nil || rep.key == key || diffBit(key, rep.key) != b {
			return false, template.Retry
		}
		if !cur.leaf && cur.bit <= b {
			return false, template.Retry
		}
		n := leaf(c)
		if inner == nil {
			inner = t.alloc(c.Reclaim())
		}
		if bitOf(key, b) == 0 {
			setInternal(inner, b, n, cur)
		} else {
			setInternal(inner, b, cur, n)
		}
		// New value: a fresh router.
		if c.SCXPtr([]*core.Record{parentRec}, nil,
			parentRec.PtrField(parentDir), unsafe.Pointer(inner)) {
			return true, template.Done
		}
		return false, template.Retry
	})
}

// descendTo walks toward key and returns the edge (parent record, field
// index) whose current child cur is the first node that is a leaf or routes
// at a bit index >= b — the splice point for a new router at bit b. cur is
// nil if the trie has been emptied meanwhile.
func (t *Trie[V]) descendTo(key uint64, b int) (*core.Record, int, *node[V]) {
	parentRec := t.root
	parentDir := fieldChild0
	cur := t.top()
	for !cur.leaf && !cur.empty && cur.bit < b {
		parentRec = &cur.rec
		parentDir = bitOf(key, cur.bit)
		cur = cur.child(parentDir)
	}
	if cur.empty {
		return parentRec, parentDir, nil
	}
	return parentRec, parentDir, cur
}

// replaceLeaf swaps the leaf holding key for repl, finalizing and retiring
// the old one. Returns false if the structure moved.
func (t *Trie[V]) replaceLeaf(c *template.Ctx, key uint64, repl *node[V]) bool {
	parentRec := t.root
	parentDir := fieldChild0
	cur := t.top()
	for !cur.leaf && !cur.empty {
		parentRec = &cur.rec
		parentDir = bitOf(key, cur.bit)
		cur = cur.child(parentDir)
	}
	if cur.empty || cur.key != key {
		return false
	}
	localp, st := c.LLXF(parentRec)
	if st != core.LLXOK {
		return false
	}
	if (*node[V])(localp.Ptr(parentDir)) != cur {
		return false
	}
	if _, st := c.LLXF(&cur.rec); st != core.LLXOK {
		return false
	}
	// New value: a fresh leaf.
	if c.SCXPtr([]*core.Record{parentRec, &cur.rec}, []*core.Record{&cur.rec},
		parentRec.PtrField(parentDir), unsafe.Pointer(repl)) {
		t.pool.Retire(c.Reclaim(), cur)
		return true
	}
	return false
}

// delResult carries Delete's two return values through the engine.
type delResult[V any] struct {
	val V
	ok  bool
}

// Delete removes key's mapping, returning the removed value and true, or
// the zero value and false if key was absent.
func (s Session[V]) Delete(key uint64) (V, bool) {
	t := s.t
	var fresh *node[V] // the sibling's copy or the new empty sentinel, built at most once
	res := template.Run(s.h, t.policy, &t.delStats, func(c *template.Ctx) (delResult[V], template.Action) {
		// Track grandparent edge, parent node, and leaf during the descent.
		gRec := t.root
		gDir := fieldChild0
		var p *node[V]
		l := t.top()
		for !l.leaf && !l.empty {
			if p != nil {
				gRec = &p.rec
				gDir = bitOf(key, p.bit)
			}
			p = l
			l = l.child(bitOf(key, p.bit))
		}
		if l.empty || l.key != key {
			if fresh != nil {
				t.pool.Release(c.Reclaim(), fresh) // never published
			}
			return delResult[V]{}, template.Done
		}
		if fresh == nil {
			fresh = t.alloc(c.Reclaim())
		}
		if p == nil {
			// The leaf is the entire trie: replace it with a fresh empty
			// sentinel, finalizing it.
			localr, st := c.LLXF(t.root)
			if st != core.LLXOK {
				return delResult[V]{}, template.Retry
			}
			if (*node[V])(localr.Ptr(fieldChild0)) != l {
				return delResult[V]{}, template.Retry
			}
			if _, st := c.LLXF(&l.rec); st != core.LLXOK {
				return delResult[V]{}, template.Retry
			}
			setEmpty(fresh)
			// New value: a fresh empty sentinel, never nil or an old one.
			if c.SCXPtr([]*core.Record{t.root, &l.rec}, []*core.Record{&l.rec},
				t.root.PtrField(fieldChild0), unsafe.Pointer(fresh)) {
				val := l.val
				t.pool.Retire(c.Reclaim(), l)
				return delResult[V]{val: val, ok: true}, template.Done
			}
			return delResult[V]{}, template.Retry
		}
		// Replace p with a copy of l's sibling, finalizing p, l and the
		// sibling.
		localg, st := c.LLXF(gRec)
		if st != core.LLXOK {
			return delResult[V]{}, template.Retry
		}
		if (*node[V])(localg.Ptr(gDir)) != p {
			return delResult[V]{}, template.Retry
		}
		localp, st := c.LLXF(&p.rec)
		if st != core.LLXOK {
			return delResult[V]{}, template.Retry
		}
		ldir := bitOf(key, p.bit)
		if (*node[V])(localp.Ptr(ldir)) != l {
			return delResult[V]{}, template.Retry
		}
		sib := (*node[V])(localp.Ptr(1 - ldir))
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
		copyOf(fresh, sib, locals)
		// V in preorder-consistent order: grandparent edge owner, p, then
		// p's children in child order.
		var v []*core.Record
		if ldir == 0 {
			v = []*core.Record{gRec, &p.rec, &l.rec, &sib.rec}
		} else {
			v = []*core.Record{gRec, &p.rec, &sib.rec, &l.rec}
		}
		// New value: a fresh copy of the sibling. The sibling itself may be
		// what the grandparent's field held before p was spliced in.
		if c.SCXPtr(v, []*core.Record{&p.rec, &l.rec, &sib.rec}, gRec.PtrField(gDir),
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

// Len returns the number of keys observed by one traversal (exact when
// quiescent, weakly consistent under concurrency per Proposition 2).
func (t *Trie[V]) Len() int {
	n := 0
	template.Guarded(func() { t.walk(t.top(), func(*node[V]) { n++ }) })
	return n
}

// Keys returns the keys in ascending order (MSB-first bit order IS numeric
// order), with the same consistency caveat as Len.
func (t *Trie[V]) Keys() []uint64 {
	var keys []uint64
	template.Guarded(func() { t.walk(t.top(), func(l *node[V]) { keys = append(keys, l.key) }) })
	return keys
}

// Items returns the key -> value contents, same caveat as Len.
func (t *Trie[V]) Items() map[uint64]V {
	items := make(map[uint64]V)
	template.Guarded(func() { t.walk(t.top(), func(l *node[V]) { items[l.key] = l.val }) })
	return items
}

func (t *Trie[V]) walk(n *node[V], visit func(l *node[V])) {
	if n == nil || n.empty {
		return
	}
	if n.leaf {
		visit(n)
		return
	}
	t.walk(n.child(fieldChild0), visit)
	t.walk(n.child(fieldChild1), visit)
}

// CheckInvariants verifies the Patricia shape on a quiescent trie: bit
// indices strictly increase downward, every key in a subtree agrees with
// the routing decisions above it, internal nodes have two children, and no
// reachable node is finalized.
func (t *Trie[V]) CheckInvariants() error {
	if t.root.Finalized() {
		return fmt.Errorf("entry point finalized")
	}
	var err error
	template.Guarded(func() { err = t.check(t.top(), -1, 0, 0) })
	return err
}

// check validates subtree n: parentBit is the bit index of n's parent (-1
// at the top), and the bits of prefix masked by mask are the routing
// decisions taken so far.
func (t *Trie[V]) check(n *node[V], parentBit int, prefix, mask uint64) error {
	if n == nil {
		return fmt.Errorf("internal node missing a child")
	}
	if n.empty && parentBit != -1 {
		return fmt.Errorf("empty sentinel below the root")
	}
	if n.rec.Finalized() {
		return fmt.Errorf("reachable node finalized (leaf=%v bit=%d key=%d)",
			n.leaf, n.bit, n.key)
	}
	if n.empty {
		return nil // empty trie
	}
	if n.leaf {
		if n.key&mask != prefix {
			return fmt.Errorf("leaf key %#x disagrees with routing prefix %#x/%#x",
				n.key, prefix, mask)
		}
		return nil
	}
	if n.bit <= parentBit {
		return fmt.Errorf("bit indices not increasing: parent %d, child %d",
			parentBit, n.bit)
	}
	if n.bit > 63 {
		return fmt.Errorf("bit index %d out of range", n.bit)
	}
	m := uint64(1) << (63 - n.bit)
	if err := t.check(n.child(fieldChild0), n.bit, prefix, mask|m); err != nil {
		return err
	}
	return t.check(n.child(fieldChild1), n.bit, prefix|m, mask|m)
}
