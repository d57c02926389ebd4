package core_test

import (
	"testing"
	"time"

	"pragmaprim/internal/core"
	"pragmaprim/internal/multiset"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

// awaitMobileEpoch blocks until the shared reclamation domain's epoch can
// advance again. Announcements stay published between operations now, so a
// handle abandoned by an earlier test in this binary pins the epoch — and a
// pinned epoch starves the descriptor freelist these tests measure — until
// the GC scavenger collects it. AwaitMobile forces that collection.
func awaitMobileEpoch(t *testing.T) {
	t.Helper()
	if !reclaim.Default.AwaitMobile(10 * time.Second) {
		t.Fatal("reclamation epoch is pinned by a stale announcement from an earlier test")
	}
}

// allocMultiset is the end-to-end fixture for TestSessionUpdateAllocCeiling:
// a real multiset with one resident key, driven through a bound Session.
type allocMultiset struct {
	s multiset.Session[int]
}

func newAllocMultiset() *allocMultiset {
	m := multiset.New[int]()
	s := m.Attach(core.NewHandle())
	s.Insert(1, 1)
	return &allocMultiset{s: s}
}

// bump re-inserts the resident key: one LLX + one count-bump SCX.
func (a *allocMultiset) bump() { a.s.Insert(1, 1) }

// The allocation regression tests pin the fast-path allocation ceilings the
// DESIGN.md layout promises: LLXFields into a caller-owned Fields performs
// zero heap allocations, and an LLX+SCX cycle on a raw (un-announced)
// Process performs at most one (the operation descriptor, which must stay
// fresh per SCX for ABA-safety unless it is recycled under an epoch).

func TestSCXCycleAllocCeiling(t *testing.T) {
	p := core.NewProcess()
	r := core.NewTypedRecord(1, 0)
	var f core.Fields
	v := make([]*core.Record, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		if st := p.LLXFields(r, &f); st != core.LLXOK {
			t.Fatal("LLX failed")
		}
		v[0] = r
		if !p.SCXWord(v, nil, r.WordField(0), f.Word(0)+1) {
			t.Fatal("SCX failed")
		}
	})
	if allocs > 1 {
		t.Errorf("LLXFields+SCXWord cycle: %v allocs/op, want <= 1 (the descriptor)", allocs)
	}
}

// TestTemplateRunAllocFree pins that the template engine adds zero
// allocations over the hand-rolled loop it replaced: the LLXFields+SCXWord
// cycle measured by TestSCXCycleAllocCeiling costs at most one allocation
// (the descriptor), and the same transaction routed through template.Run —
// with its closure, Ctx-owned snapshot buffer, stats flush and policy hook
// — must cost no more. The Ctx itself is cached on the Handle, so after the
// warm-up call nothing engine-side touches the heap.
func TestTemplateRunAllocFree(t *testing.T) {
	h := core.NewHandle()
	defer h.Release()
	r := core.NewTypedRecord(1, 0)
	var st template.OpStats
	attempt := func(c *template.Ctx) (struct{}, template.Action) {
		snap, s := c.LLXF(r)
		if s != core.LLXOK {
			t.Fatal("LLX failed")
		}
		if !c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
			t.Fatal("SCX failed")
		}
		return struct{}{}, template.Done
	}
	template.Run(h, template.Immediate(), &st, attempt) // warm-up builds the Ctx
	allocs := testing.AllocsPerRun(1000, func() {
		template.Run(h, template.Immediate(), &st, attempt)
	})
	if allocs > 1 {
		t.Errorf("template.Run LLX+SCX cycle: %v allocs/op, want <= 1 (the descriptor, same as hand-rolled)", allocs)
	}
}

// TestHandleAcquireReleaseAllocFree pins that the pooled Handle roundtrip —
// the per-operation cost of the convenience API — is allocation-free after
// warmup: the Handle, its embedded Process, and its cached engine Ctx are
// all reused from the pool.
func TestHandleAcquireReleaseAllocFree(t *testing.T) {
	pool := core.NewProcessPool()
	pool.Acquire().Release() // warm-up mints the one pooled Handle
	allocs := testing.AllocsPerRun(1000, func() {
		pool.Acquire().Release()
	})
	if allocs != 0 {
		t.Errorf("Handle Acquire/Release: %v allocs/op, want 0 after warmup", allocs)
	}
}

// TestSessionUpdateAllocCeiling pins the whole stack end to end: a warm
// structure operation through a bound Session (engine + handle + de-boxed
// snapshot + descriptor recycling) is allocation-FREE. An Insert of an
// existing key is one LLX + one word SCX: the count is a raw uint64 (no
// boxing) and the descriptor comes from the reclamation freelist.
func TestSessionUpdateAllocCeiling(t *testing.T) {
	awaitMobileEpoch(t)
	m := newAllocMultiset()
	defer m.s.Handle().Release()
	for i := 0; i < 64; i++ {
		m.bump() // prime the descriptor-recycling pipeline
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.bump()
	})
	if allocs != 0 {
		t.Errorf("warm Session count-bump: %v allocs/op, want 0 (de-boxed count, recycled descriptor)", allocs)
	}
}

// TestSCXCycleRecycledAllocFree pins the hand-rolled GC-free steady state:
// an LLXFields+SCXWord cycle under an announced reclamation epoch recycles
// its descriptor, so the warm path performs zero heap allocations — the
// tightened form of TestSCXCycleAllocCeiling's one-descriptor ceiling.
func TestSCXCycleRecycledAllocFree(t *testing.T) {
	awaitMobileEpoch(t)
	p := core.NewProcess()
	l := p.Reclaimer()
	defer l.Release()
	r := core.NewTypedRecord(1, 0)
	var f core.Fields
	i := uint64(0)
	cycle := func() {
		i++
		l.Enter()
		defer l.Exit()
		if st := p.LLXFields(r, &f); st != core.LLXOK {
			t.Fatal("LLX failed")
		}
		if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), i) {
			t.Fatal("SCX failed")
		}
	}
	for j := 0; j < 64; j++ {
		cycle() // prime the descriptor-recycling pipeline
	}
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Errorf("announced LLX+SCX cycle: %v allocs/op, want 0 warm", allocs)
	}
}

// TestTemplateRunRecycledAllocFree pins the engine path at the same warm
// zero: template.Run announces the epoch itself, so a typed LLXF+SCXWord
// transaction through the engine allocates nothing once the descriptor
// pipeline is primed.
func TestTemplateRunRecycledAllocFree(t *testing.T) {
	awaitMobileEpoch(t)
	h := core.NewHandle()
	defer h.Release()
	r := core.NewTypedRecord(1, 0)
	i := uint64(0)
	attempt := func(c *template.Ctx) (struct{}, template.Action) {
		snap, s := c.LLXF(r)
		if s != core.LLXOK {
			t.Fatal("LLX failed")
		}
		if !c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+i) {
			t.Fatal("SCX failed")
		}
		return struct{}{}, template.Done
	}
	for j := 0; j < 64; j++ {
		i++
		template.Run(h, template.Immediate(), nil, attempt)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		template.Run(h, template.Immediate(), nil, attempt)
	})
	if allocs != 0 {
		t.Errorf("warm template.Run LLXF+SCXWord cycle: %v allocs/op, want 0", allocs)
	}
}

// TestLLXFieldsAllocFree pins the de-boxed snapshot path: LLXFields into a
// caller-owned Fields performs zero heap allocations from the first call —
// no warmup required, because nothing is boxed and nothing is returned by
// reference.
func TestLLXFieldsAllocFree(t *testing.T) {
	p := core.NewProcess()
	r := core.NewTypedRecord(2, 2)
	var f core.Fields
	allocs := testing.AllocsPerRun(1000, func() {
		if st := p.LLXFields(r, &f); st != core.LLXOK {
			t.Fatal("LLX failed")
		}
	})
	if allocs != 0 {
		t.Errorf("LLXFields: %v allocs/op, want 0", allocs)
	}
}

// TestSCXStackLiteralVSequence pins that SCX does not retain its v/rset
// arguments: a V-sequence built as a slice literal at the call site must not
// force a heap allocation beyond the descriptor.
func TestSCXStackLiteralVSequence(t *testing.T) {
	p := core.NewProcess()
	r := core.NewTypedRecord(1, 0)
	var f core.Fields
	allocs := testing.AllocsPerRun(1000, func() {
		if st := p.LLXFields(r, &f); st != core.LLXOK {
			t.Fatal("LLX failed")
		}
		if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), f.Word(0)+1) {
			t.Fatal("SCX failed")
		}
	})
	if allocs > 1 {
		t.Errorf("LLXFields+SCXWord with literal V: %v allocs/op, want <= 1", allocs)
	}
}
