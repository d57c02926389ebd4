// Package queue implements a non-blocking FIFO queue on the LLX/SCX
// primitives, in the shape of the Michael-Scott queue: a dummy head node, a
// lazily advanced tail hint, and one SCX per mutation. It demonstrates the
// paper's template away from search structures — enqueue appends by SCXing
// one next pointer, dequeue advances the head pointer and finalizes exactly
// the node it removes, so consumers can never act on a stale head. Both
// update loops run on the internal/template engine; the dequeue's empty
// case shows the engine's VLX path (a validated read-only observation).
//
// Storage is de-boxed (entry and node links are raw pointer words) and
// dequeued nodes are recycled through internal/reclaim. Recycling imposes
// the classic Michael-Scott discipline on the tail hint: a node may be
// retired only once the hint provably no longer designates it, and the hint
// may only ever be swung to a node that is un-finalized at the moment the
// swing commits (the hint-advance SCX includes the target node in its
// V-sequence to get exactly that guarantee). See DESIGN.md.
//
// No pointer field is ever given a value it held before (the paper's
// Section 4.1 rule): a node's next goes from nil to a fresh node once, and
// the head and the tail hint only ever move forward along the list.
//
// Methods never take a *core.Process: plain calls acquire a pooled Handle
// per operation, and hot paths bind one with Attach.
package queue

import (
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

// Mutable-field indices (all pointer fields).
const (
	entryHead = 0 // ptr 0 of the entry record: current dummy node
	entryTail = 1 // ptr 1 of the entry record: tail hint (may lag; never retired)
	nodeNext  = 0 // ptr 0 of a node record: successor
)

// node is one queue cell; val is immutable while published, next is the
// only mutable field. The Data-record is embedded: node plus record are one
// allocation, recycled together.
type node[T any] struct {
	rec core.Record
	val T
}

func (n *node[T]) next() *node[T] {
	return (*node[T])(n.rec.Ptr(nodeNext))
}

// Queue is a non-blocking FIFO queue. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Queue[T any] struct {
	entry    *core.Record // the sole entry point; never finalized
	pool     *reclaim.Pool[node[T]]
	policy   template.Policy
	enqStats template.OpStats
	deqStats template.OpStats
}

// New creates an empty queue holding only the initial dummy node.
func New[T any]() *Queue[T] {
	q := &Queue[T]{pool: reclaim.NewPool[node[T]]()}
	// Rewind records as nodes enter the freelists, releasing the
	// descriptors their info fields would otherwise park (see reclaim).
	q.pool.SetOnFree(func(n *node[T]) { n.rec.Recycle() })
	var zero T
	dummy := q.newNode(nil, zero, nil)
	entry := core.NewTypedRecord(0, 2)
	entry.SetPtr(entryHead, unsafe.Pointer(dummy))
	entry.SetPtr(entryTail, unsafe.Pointer(dummy))
	q.entry = entry
	return q
}

// newNode builds (or recycles) a fully initialized, unpublished node.
func (q *Queue[T]) newNode(l *reclaim.Local, val T, next *node[T]) *node[T] {
	n := q.pool.Get(l)
	if n == nil {
		n = &node[T]{}
		core.InitRecord(&n.rec, 0, 1)
	} else {
		n.rec.Recycle()
	}
	n.val = val
	n.rec.SetPtr(nodeNext, unsafe.Pointer(next))
	return n
}

// SetPolicy installs the retry policy updates back off with; nil (the
// default) retries immediately. Call before sharing the queue.
func (q *Queue[T]) SetPolicy(p template.Policy) { q.policy = p }

// EngineStats returns the template engine's aggregate attempt/failure
// counters across all update operations.
func (q *Queue[T]) EngineStats() template.Counters {
	return q.enqStats.Snapshot().Add(q.deqStats.Snapshot())
}

// StatsByOp returns the engine counters broken out per operation.
func (q *Queue[T]) StatsByOp() map[string]template.Counters {
	return map[string]template.Counters{
		"enqueue": q.enqStats.Snapshot(),
		"dequeue": q.deqStats.Snapshot(),
	}
}

// Session is a Handle-bound view of a Queue: the hot-path API for a
// goroutine performing many operations. Not safe for concurrent use; any
// number of Sessions may share the Queue.
type Session[T any] struct {
	q *Queue[T]
	h *core.Handle
}

// Attach binds a Session to h. The caller keeps ownership of h.
func (q *Queue[T]) Attach(h *core.Handle) Session[T] {
	return Session[T]{q: q, h: h}
}

// Handle returns the Session's Handle.
func (s Session[T]) Handle() *core.Handle { return s.h }

func (q *Queue[T]) head() *node[T] {
	return (*node[T])(q.entry.Ptr(entryHead))
}

func (q *Queue[T]) tailHint() *node[T] {
	return (*node[T])(q.entry.Ptr(entryTail))
}

// Enqueue appends val using a pooled Handle; see Session.Enqueue for the
// hot-path form.
func (q *Queue[T]) Enqueue(val T) {
	h := core.AcquireHandle()
	q.Attach(h).Enqueue(val)
	h.Release()
}

// Dequeue removes the oldest element using a pooled Handle; see
// Session.Dequeue for the hot-path form.
func (q *Queue[T]) Dequeue() (T, bool) {
	h := core.AcquireHandle()
	v, ok := q.Attach(h).Dequeue()
	h.Release()
	return v, ok
}

// Enqueue appends val at the tail.
func (s Session[T]) Enqueue(val T) {
	q := s.q
	var n *node[T] // built at most once per operation; retries reuse it
	template.Run(s.h, q.policy, &q.enqStats, func(c *template.Ctx) (struct{}, template.Action) {
		if n == nil {
			n = q.newNode(c.Reclaim(), val, nil)
		}
		// Find the last node, starting from the (possibly lagging) hint.
		from := q.tailHint()
		last := from
		for {
			nxt := last.next()
			if nxt == nil {
				break
			}
			last = nxt
		}
		localLast, st := c.LLXF(&last.rec)
		if st != core.LLXOK {
			return struct{}{}, template.Retry // finalized (dequeued past) or contended; re-find
		}
		if localLast.Ptr(nodeNext) != nil {
			return struct{}{}, template.Retry // someone appended after our walk
		}
		// New value: a fresh node, into a next that was nil.
		if c.SCXPtr([]*core.Record{&last.rec}, nil, last.rec.PtrField(nodeNext),
			unsafe.Pointer(n)) {
			q.advanceTail(c, from, n)
			return struct{}{}, template.Done
		}
		return struct{}{}, template.Retry
	})
}

// advanceTail best-effort moves the tail hint from `from`, where the
// enqueue's walk started, to n, the node it appended; a failure just leaves
// the hint lagging, which only costs later enqueues a longer walk. It uses
// the raw primitives rather than the Ctx so its expected-and-harmless
// failures never count as operation contention in the engine stats.
//
// The swing happens only while the hint still designates from: n lies
// after from, so the hint only moves forward and never gets a value back
// (an unconditional swing could move it back behind a later enqueue's node).
//
// n is part of the SCX's V-sequence: the swing commits only if n is still
// un-finalized at that instant, which preserves the invariant that the tail
// hint never designates a retired node — the property node recycling
// depends on (a dangling hint would let an enqueue walk off a node whose
// storage has been reused).
func (q *Queue[T]) advanceTail(c *template.Ctx, from, n *node[T]) {
	p := c.Process()
	var entryBuf, nodeBuf core.Fields
	if st := p.LLXFields(q.entry, &entryBuf); st != core.LLXOK {
		return
	}
	if (*node[T])(entryBuf.Ptr(entryTail)) != from {
		return // the hint moved on, possibly past n
	}
	if st := p.LLXFields(&n.rec, &nodeBuf); st != core.LLXOK {
		return // n already dequeued and finalized: it must not become the hint
	}
	// New value: n, after the current hint in list order.
	p.SCXPtr([]*core.Record{q.entry, &n.rec}, nil,
		q.entry.PtrField(entryTail), unsafe.Pointer(n))
}

// clearTailHint moves the tail hint off d (the dummy a successful dequeue
// just finalized) so that d can be retired. The replacement target is the
// snapshot's current head: if that node were concurrently finalized, the
// entry record would have changed and the SCX would fail, so the hint can
// never be swung onto a retired node. The loop ends as soon as the hint no
// longer designates d (usually immediately: the hint only equals the dummy
// around the empty state).
func (q *Queue[T]) clearTailHint(c *template.Ctx, d *node[T]) {
	p := c.Process()
	var entryBuf core.Fields
	for q.tailHint() == d {
		if st := p.LLXFields(q.entry, &entryBuf); st != core.LLXOK {
			continue
		}
		if (*node[T])(entryBuf.Ptr(entryTail)) != d {
			return
		}
		target := entryBuf.Ptr(entryHead)
		// New value: the head, which lies after d in list order (the hint
		// only moves forward).
		if p.SCXPtr([]*core.Record{q.entry}, nil,
			q.entry.PtrField(entryTail), target) {
			return
		}
	}
}

// deqResult carries Dequeue's two return values through the engine.
type deqResult[T any] struct {
	val T
	ok  bool
}

// Dequeue removes and returns the oldest element; ok is false when the
// queue is (momentarily) empty.
func (s Session[T]) Dequeue() (T, bool) {
	q := s.q
	res := template.Run(s.h, q.policy, &q.deqStats, func(c *template.Ctx) (deqResult[T], template.Action) {
		localEntry, st := c.LLXF(q.entry)
		if st != core.LLXOK {
			return deqResult[T]{}, template.Retry
		}
		d := (*node[T])(localEntry.Ptr(entryHead))
		locald, st := c.LLXF(&d.rec)
		if st != core.LLXOK {
			return deqResult[T]{}, template.Retry
		}
		f := (*node[T])(locald.Ptr(nodeNext))
		if f == nil {
			// The dummy has no successor: empty. The two LLX snapshots are
			// individually linked; validate them together so the emptiness
			// observation is atomic.
			if c.VLX([]*core.Record{q.entry, &d.rec}) {
				return deqResult[T]{}, template.Done
			}
			return deqResult[T]{}, template.Retry
		}
		// Swing head to f (which becomes the new dummy) and finalize the
		// old dummy; f's value is the dequeued element. New value: the
		// head's successor (the head only moves forward).
		if c.SCXPtr([]*core.Record{q.entry, &d.rec}, []*core.Record{&d.rec},
			q.entry.PtrField(entryHead), unsafe.Pointer(f)) {
			val := f.val
			// Retire the old dummy only after the tail hint provably no
			// longer designates it.
			q.clearTailHint(c, d)
			q.pool.Retire(c.Reclaim(), d)
			return deqResult[T]{val: val, ok: true}, template.Done
		}
		return deqResult[T]{}, template.Retry
	})
	return res.val, res.ok
}

// Peek returns the oldest element without removing it; ok is false when the
// queue is (momentarily) empty. It is a plain read of the dummy's successor
// (Proposition 2) under a pooled handle's epoch guard: O(1), weakly
// consistent under concurrency.
func (q *Queue[T]) Peek() (val T, ok bool) {
	template.Guarded(func() {
		if f := q.head().next(); f != nil {
			val, ok = f.val, true
		}
	})
	return val, ok
}

// Len counts the elements seen by one traversal: exact when quiescent,
// weakly consistent under concurrency.
func (q *Queue[T]) Len() (n int) {
	template.Guarded(func() {
		for cur := q.head().next(); cur != nil; cur = cur.next() {
			n++
		}
	})
	return n
}

// Items returns the values seen by one traversal in FIFO order: exact when
// quiescent, weakly consistent under concurrency. Like Len it walks under a
// single epoch guard, so no node is reclaimed mid-scan.
func (q *Queue[T]) Items() []T {
	var out []T
	template.Guarded(func() {
		for cur := q.head().next(); cur != nil; cur = cur.next() {
			out = append(out, cur.val)
		}
	})
	return out
}

// Drain dequeues everything currently observable, returning the values in
// FIFO order. Intended for quiescent use in tests.
func (q *Queue[T]) Drain() []T {
	h := core.AcquireHandle()
	defer h.Release()
	s := q.Attach(h)
	var out []T
	for {
		v, ok := s.Dequeue()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
