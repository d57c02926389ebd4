// Package stack implements a non-blocking LIFO stack on the LLX/SCX
// primitives — the Treiber stack restated in the paper's template. The
// entry point's top pointer is the only mutable word; cells are fully
// immutable. Push and Pop run on the internal/template engine like every
// other structure.
//
// The stack ends in a bottom sentinel cell (the one cell whose next is
// nil), so top is never nil. Storage is de-boxed (the top pointer is a raw
// pointer word) and popped cells are recycled through internal/reclaim.
//
// Top must never get a cell back (the paper's Section 4.1 rule): a helper
// of "push c" stalled at its update CAS expects top to hold c's successor,
// so a pop that swung top back to it would let the stale CAS re-push c.
// Pop therefore finalizes the popped cell and its successor and installs a
// fresh copy of the successor, like the multiset's delete (Figure 5(c)).
//
// Methods never take a *core.Process: plain calls acquire a pooled Handle
// per operation, and hot paths bind one with Attach.
package stack

import (
	"unsafe"

	"pragmaprim/internal/core"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

const entryTop = 0 // ptr 0 of the entry record: top of stack

// cell is one stack cell; both fields are immutable while published, so
// cells are Data-records with zero mutable fields. The record is embedded:
// cell plus record are one allocation, recycled together. The bottom
// sentinel is the cell with a nil next.
type cell[T any] struct {
	rec  core.Record
	val  T
	next *cell[T]
}

// bottom reports whether c is the bottom sentinel.
func (c *cell[T]) bottom() bool { return c.next == nil }

// Stack is a non-blocking LIFO stack. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Stack[T any] struct {
	entry     *core.Record // the sole entry point; never finalized
	pool      *reclaim.Pool[cell[T]]
	policy    template.Policy
	pushStats template.OpStats
	popStats  template.OpStats
}

// New creates an empty stack: the entry point designates a bottom
// sentinel.
func New[T any]() *Stack[T] {
	s := &Stack[T]{
		entry: core.NewTypedRecord(0, 1),
		pool:  reclaim.NewPool[cell[T]](),
	}
	// Rewind records as cells enter the freelists, releasing the
	// descriptors their info fields would otherwise park (see reclaim).
	s.pool.SetOnFree(func(c *cell[T]) { c.rec.Recycle() })
	var zero T
	s.entry.SetPtr(entryTop, unsafe.Pointer(s.newCell(nil, zero, nil)))
	return s
}

// newCell builds (or recycles) a fully initialized, unpublished cell.
func (s *Stack[T]) newCell(l *reclaim.Local, val T, next *cell[T]) *cell[T] {
	c := s.pool.Get(l)
	if c == nil {
		c = &cell[T]{}
		core.InitRecord(&c.rec, 0, 0)
	} else {
		c.rec.Recycle()
	}
	c.val, c.next = val, next
	return c
}

// SetPolicy installs the retry policy updates back off with; nil (the
// default) retries immediately. Call before sharing the stack.
func (s *Stack[T]) SetPolicy(p template.Policy) { s.policy = p }

// EngineStats returns the template engine's aggregate attempt/failure
// counters across all update operations.
func (s *Stack[T]) EngineStats() template.Counters {
	return s.pushStats.Snapshot().Add(s.popStats.Snapshot())
}

// StatsByOp returns the engine counters broken out per operation.
func (s *Stack[T]) StatsByOp() map[string]template.Counters {
	return map[string]template.Counters{
		"push": s.pushStats.Snapshot(),
		"pop":  s.popStats.Snapshot(),
	}
}

// Session is a Handle-bound view of a Stack: the hot-path API for a
// goroutine performing many operations. Not safe for concurrent use; any
// number of Sessions may share the Stack.
type Session[T any] struct {
	s *Stack[T]
	h *core.Handle
}

// Attach binds a Session to h. The caller keeps ownership of h.
func (s *Stack[T]) Attach(h *core.Handle) Session[T] {
	return Session[T]{s: s, h: h}
}

// Handle returns the Session's Handle.
func (v Session[T]) Handle() *core.Handle { return v.h }

func (s *Stack[T]) top() *cell[T] {
	return (*cell[T])(s.entry.Ptr(entryTop))
}

// Push adds val on top using a pooled Handle; see Session.Push for the
// hot-path form.
func (s *Stack[T]) Push(val T) {
	h := core.AcquireHandle()
	s.Attach(h).Push(val)
	h.Release()
}

// Pop removes the top element using a pooled Handle; see Session.Pop for
// the hot-path form.
func (s *Stack[T]) Pop() (T, bool) {
	h := core.AcquireHandle()
	v, ok := s.Attach(h).Pop()
	h.Release()
	return v, ok
}

// Push adds val on top.
func (v Session[T]) Push(val T) {
	s := v.s
	var fresh *cell[T] // built at most once per operation; retries retarget it
	template.Run(v.h, s.policy, &s.pushStats, func(c *template.Ctx) (struct{}, template.Action) {
		localEntry, st := c.LLXF(s.entry)
		if st != core.LLXOK {
			return struct{}{}, template.Retry
		}
		topCell := (*cell[T])(localEntry.Ptr(entryTop))
		if fresh == nil {
			fresh = s.newCell(c.Reclaim(), val, topCell)
		} else {
			fresh.next = topCell
		}
		// New value: a freshly allocated or recycled cell.
		if c.SCXPtr([]*core.Record{s.entry}, nil, s.entry.PtrField(entryTop),
			unsafe.Pointer(fresh)) {
			return struct{}{}, template.Done
		}
		return struct{}{}, template.Retry
	})
}

// popResult carries Pop's two return values through the engine.
type popResult[T any] struct {
	val T
	ok  bool
}

// Pop removes and returns the top element; ok is false when the stack is
// (momentarily) empty. It unlinks the top cell and its successor together,
// finalizing both, and installs a fresh copy of the successor (see the
// package comment for why top must not get the successor itself back).
func (v Session[T]) Pop() (T, bool) {
	s := v.s
	var fresh *cell[T] // the successor's copy, built at most once per operation
	res := template.Run(v.h, s.policy, &s.popStats, func(c *template.Ctx) (popResult[T], template.Action) {
		localEntry, st := c.LLXF(s.entry)
		if st != core.LLXOK {
			return popResult[T]{}, template.Retry
		}
		topCell := (*cell[T])(localEntry.Ptr(entryTop))
		if topCell.bottom() {
			// The LLX snapshot itself is the atomic emptiness witness.
			if fresh != nil {
				s.pool.Release(c.Reclaim(), fresh) // never published
			}
			return popResult[T]{}, template.Done
		}
		// Cells have no mutable fields: their LLXs link without copying.
		if _, st := c.LLXF(&topCell.rec); st != core.LLXOK {
			return popResult[T]{}, template.Retry
		}
		succ := topCell.next
		if _, st := c.LLXF(&succ.rec); st != core.LLXOK {
			return popResult[T]{}, template.Retry
		}
		if fresh == nil {
			fresh = s.newCell(c.Reclaim(), succ.val, succ.next)
		} else {
			fresh.val, fresh.next = succ.val, succ.next
		}
		// New value: a fresh copy of the successor; top never gets an older
		// cell back.
		if c.SCXPtr([]*core.Record{s.entry, &topCell.rec, &succ.rec},
			[]*core.Record{&topCell.rec, &succ.rec},
			s.entry.PtrField(entryTop), unsafe.Pointer(fresh)) {
			val := topCell.val
			s.pool.Retire(c.Reclaim(), topCell)
			s.pool.Retire(c.Reclaim(), succ)
			return popResult[T]{val: val, ok: true}, template.Done
		}
		return popResult[T]{}, template.Retry
	})
	return res.val, res.ok
}

// Peek returns the top element without removing it; ok is false when the
// stack is (momentarily) empty. It is a plain read of the entry point's top
// pointer under a pooled handle's epoch guard: O(1), weakly consistent
// under concurrency.
func (s *Stack[T]) Peek() (val T, ok bool) {
	template.Guarded(func() {
		if t := s.top(); !t.bottom() {
			val, ok = t.val, true
		}
	})
	return val, ok
}

// Len counts the cells seen by one traversal: exact when quiescent, weakly
// consistent under concurrency.
func (s *Stack[T]) Len() (n int) {
	template.Guarded(func() {
		for c := s.top(); !c.bottom(); c = c.next {
			n++
		}
	})
	return n
}

// Items returns the values seen by one traversal in LIFO order (top first):
// exact when quiescent, weakly consistent under concurrency. Like Len it
// walks under a single epoch guard, so no cell is reclaimed mid-scan.
func (s *Stack[T]) Items() []T {
	var out []T
	template.Guarded(func() {
		for c := s.top(); !c.bottom(); c = c.next {
			out = append(out, c.val)
		}
	})
	return out
}

// Drain pops everything currently observable, returning values in LIFO
// order. Intended for quiescent use in tests.
func (s *Stack[T]) Drain() []T {
	h := core.AcquireHandle()
	defer h.Release()
	sess := s.Attach(h)
	var out []T
	for {
		v, ok := sess.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
