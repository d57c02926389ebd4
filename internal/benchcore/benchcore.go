// Package benchcore holds the shared bodies of the core fast-path
// microbenchmarks. Both the go-test benchmarks at the repository root
// (bench_test.go) and cmd/bench's -corejson dump run these same functions,
// so the checked-in BENCH_core.json trajectory and `go test -bench` can
// never drift into measuring different workloads.
package benchcore

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"

	"pragmaprim/internal/container"
	"pragmaprim/internal/core"
	"pragmaprim/internal/kcss"
	"pragmaprim/internal/multiset"
	"pragmaprim/internal/mwcas"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/shard"
	"pragmaprim/internal/template"
)

// LLXSnapshot times an uncontended LLX snapshot of a 2-field record (one
// word, one pointer) into a caller-owned Fields: 0 allocs/op.
func LLXSnapshot(b *testing.B) {
	p := core.NewProcess()
	r := core.NewTypedRecord(1, 1)
	r.SetWord(0, 1)
	r.SetPtr(0, unsafe.Pointer(r))
	var f core.Fields
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := p.LLXFields(r, &f); st != core.LLXOK {
			b.Fatal("LLX failed")
		}
	}
}

// FieldRead times the plain word read the paper's Proposition 2
// lets searches use in place of LLX.
func FieldRead(b *testing.B) {
	r := core.NewTypedRecord(1, 1)
	r.SetWord(0, 42)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += r.Word(0)
	}
	_ = sink
}

// DisjointSCX runs LLX+SCX loops on per-goroutine typed records: the paper
// claims every one succeeds (no retries, no aborts). Parallel iff
// GOMAXPROCS > 1.
func DisjointSCX(b *testing.B) {
	var aborts atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := core.NewProcess()
		r := core.NewTypedRecord(1, 0)
		var f core.Fields
		for pb.Next() {
			if st := p.LLXFields(r, &f); st != core.LLXOK {
				b.Fail()
				return
			}
			// New value: one more than the field held (monotone count).
			if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), f.Word(0)+1) {
				b.Fail()
				return
			}
		}
		aborts.Add(p.Metrics.AbortSteps)
	})
	b.ReportMetric(float64(aborts.Load()), "aborts")
}

// SCXCycle times an uncontended k-record LLXFields+SCXWord transaction on a
// raw (un-announced) Process — descriptors are allocated per SCX, the
// classic GC-reliant mode — and reports the measured CAS steps per
// operation (the paper's k+1).
func SCXCycle(b *testing.B, k int) {
	p := core.NewProcess()
	recs := make([]*core.Record, k)
	for j := range recs {
		recs[j] = core.NewTypedRecord(1, 0)
	}
	var f core.Fields
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			if st := p.LLXFields(r, &f); st != core.LLXOK {
				b.Fatal("LLX failed")
			}
		}
		// New value: i+1, strictly larger than every earlier write.
		if !p.SCXWord(recs, nil, recs[0].WordField(0), uint64(i)+1) {
			b.Fatal("SCX failed")
		}
	}
	b.ReportMetric(float64(p.Metrics.CASSteps())/float64(b.N), "CAS/op")
}

// SCXCycleRecycled is SCXCycle(k=1) under an announced reclamation epoch:
// the hand-rolled GC-free steady state, where the SCX descriptor comes from
// and returns to the process's freelist (0 allocs/op after warmup).
func SCXCycleRecycled(b *testing.B) {
	p := core.NewProcess()
	l := p.Reclaimer()
	b.Cleanup(l.Release) // unpublish: a stale announcement would pin later cells' epochs
	r := core.NewTypedRecord(1, 0)
	var f core.Fields
	cycle := func(i int) {
		l.Enter()
		if st := p.LLXFields(r, &f); st != core.LLXOK {
			b.Fatal("LLX failed")
		}
		// New value: i+1, strictly larger than every earlier write.
		if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), uint64(i)+1) {
			b.Fatal("SCX failed")
		}
		l.Exit()
	}
	for i := 0; i < 64; i++ {
		cycle(i) // prime the descriptor freelist
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(64 + i)
	}
}

// TemplateSCXCycle times the same uncontended 1-record LLX+SCX transaction
// as SCXCycle(k=1), but routed through the template engine — the direct
// measure of the engine's overhead over the hand-rolled loop. The engine
// announces the epoch, so after warmup the cycle is allocation-free.
func TemplateSCXCycle(b *testing.B) {
	h := core.NewHandle()
	b.Cleanup(h.Release) // unpublish: a stale announcement would pin later cells' epochs
	r := core.NewTypedRecord(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		template.Run(h, nil, nil, func(c *template.Ctx) (struct{}, template.Action) {
			snap, st := c.LLXF(r)
			if st != core.LLXOK {
				b.Fatal("LLX failed")
			}
			// New value: one more than the field held (monotone count).
			if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
				return struct{}{}, template.Done
			}
			b.Fatal("SCX failed")
			return struct{}{}, template.Retry
		})
	}
}

// HandleRoundtrip times a pooled Acquire/Release pair, the per-operation
// cost of the convenience API that hides Process management.
func HandleRoundtrip(b *testing.B) {
	pool := core.NewProcessPool()
	pool.Acquire().Release() // warm the pool so the loop measures reuse
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Acquire().Release()
	}
}

// benchThing is the payload of the ReclaimRetire benchmark.
type benchThing struct{ v int }

// ReclaimRetire times one retire-and-reallocate cycle through the epoch
// machinery: Enter, Retire into limbo, Exit (with its opportunistic
// advance/drain), and a Pool.Get that recycles an earlier retiree. This is
// the steady-state overhead a structure pays per removed node.
func ReclaimRetire(b *testing.B) {
	d := reclaim.NewDomain()
	l := reclaim.NewLocal(d)
	pool := reclaim.NewPool[benchThing]()
	x := &benchThing{}
	for i := 0; i < 64; i++ { // prime the pipeline
		l.Enter()
		pool.Retire(l, x)
		l.Exit()
		if y := pool.Get(l); y != nil {
			x = y
		} else {
			x = &benchThing{}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Enter()
		pool.Retire(l, x)
		l.Exit()
		if y := pool.Get(l); y != nil {
			x = y
		} else {
			x = &benchThing{}
		}
	}
}

// MWCASCycle times an uncontended k-word multi-word CAS over uint64 cells,
// the paper's Section 2 descriptor-based baseline (2k+1 CAS steps where SCX
// needs k+1); the whole operation is one descriptor allocation.
func MWCASCycle(b *testing.B, k int) {
	cells := make([]*mwcas.Cell[uint64], k)
	for j := range cells {
		cells[j] = mwcas.NewCell[uint64](0)
	}
	old := make([]uint64, k)
	newv := make([]uint64, k)
	var st mwcas.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			old[j] = uint64(i)
			newv[j] = uint64(i) + 1
		}
		if !mwcas.MWCAS(cells, old, newv, &st) {
			b.Fatal("MWCAS failed")
		}
	}
	b.ReportMetric(float64(st.CASAttempts.Load())/float64(b.N), "CAS/op")
}

// KCSSCycle times an uncontended k-location k-compare-single-swap over
// de-boxed version-packed word locations, the LL/SC-based baseline the
// paper positions SCX against (0 allocs/op).
func KCSSCycle(b *testing.B, k int) {
	h := kcss.NewWordHandle()
	locs := make([]*kcss.WordLoc, k)
	for j := range locs {
		locs[j] = kcss.NewWordLoc(0)
	}
	expected := make([]uint32, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expected[0] = uint32(i)
		if !h.KCSS(locs, expected, uint32(i)+1) {
			b.Fatal("KCSS failed")
		}
	}
}

// MultisetKeys is the prefill size of the multiset operation benchmarks.
const MultisetKeys = 1 << 10

// NewFilledMultiset returns a multiset prefilled with MultisetKeys keys and
// a Session bound to a fresh Handle.
func NewFilledMultiset() (*multiset.Multiset[int], multiset.Session[int]) {
	m := multiset.New[int]()
	s := m.Attach(core.NewHandle())
	for k := 0; k < MultisetKeys; k++ {
		s.Insert(k, 1)
	}
	return m, s
}

// MultisetGet times Get on a prefilled multiset through a bound Session
// (plain-read search under the session's epoch guard).
func MultisetGet(b *testing.B) {
	_, s := NewFilledMultiset()
	b.Cleanup(s.Handle().Release)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(rng.Intn(MultisetKeys))
	}
}

// MultisetInsertExisting times Insert of already-present keys (a count bump:
// one LLX + one word SCX, no node allocation, recycled descriptor — 0
// allocs/op after warmup) through a bound Session.
func MultisetInsertExisting(b *testing.B) {
	_, s := NewFilledMultiset()
	b.Cleanup(s.Handle().Release)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(rng.Intn(MultisetKeys), 1)
	}
}

// MultisetInsertDeleteNew times an insert/delete pair on fresh keys (node
// splice plus three-record unlink SCX) through a bound Session. With node
// recycling the steady state allocates nothing: the splice reuses the nodes
// earlier deletes retired.
func MultisetInsertDeleteNew(b *testing.B) {
	_, s := NewFilledMultiset()
	b.Cleanup(s.Handle().Release)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 256; i++ { // prime the recycling pipeline
		k := MultisetKeys + rng.Intn(MultisetKeys)
		s.Insert(k, 1)
		s.Delete(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := MultisetKeys + rng.Intn(MultisetKeys)
		s.Insert(k, 1)
		s.Delete(k, 1)
	}
}

// ShardedShards is the shard count of the sharded-multiset benchmarks: wide
// enough to exercise real routing, narrow enough that each shard still
// holds a realistic share of MultisetKeys.
const ShardedShards = 4

// NewFilledShardedMultiset returns a ShardedShards-way sharded multiset
// prefilled with MultisetKeys keys and a routing session over it. The rows
// it backs measure the container+shard layer's overhead against the
// unsharded multiset_* rows: the same operations plus one hash, one index
// and two interface calls.
func NewFilledShardedMultiset() (*shard.Sharded, container.Session) {
	sh := shard.New(ShardedShards, func(int) container.Container {
		return container.Multiset(multiset.New[int]())
	})
	s := sh.NewSession()
	for k := 0; k < MultisetKeys; k++ {
		s.Insert(k)
	}
	return sh, s
}

// ShardedMultisetGet times Get through the sharded container session.
func ShardedMultisetGet(b *testing.B) {
	_, s := NewFilledShardedMultiset()
	b.Cleanup(s.Close) // return the per-shard pooled Handles
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(rng.Intn(MultisetKeys))
	}
}

// ShardedMultisetInsertExisting times the count-bump insert through the
// sharded container session.
func ShardedMultisetInsertExisting(b *testing.B) {
	_, s := NewFilledShardedMultiset()
	b.Cleanup(s.Close)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(rng.Intn(MultisetKeys))
	}
}

// ShardedMultisetInsertDeleteNew times the fresh-key insert/delete pair
// through the sharded container session.
func ShardedMultisetInsertDeleteNew(b *testing.B) {
	_, s := NewFilledShardedMultiset()
	b.Cleanup(s.Close)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 256; i++ { // prime the recycling pipeline
		k := MultisetKeys + rng.Intn(MultisetKeys)
		s.Insert(k)
		s.Delete(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := MultisetKeys + rng.Intn(MultisetKeys)
		s.Insert(k)
		s.Delete(k)
	}
}
