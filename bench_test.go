package pragmaprim_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"pragmaprim/internal/benchcore"
	"pragmaprim/internal/bst"
	"pragmaprim/internal/core"
	"pragmaprim/internal/harness"
	"pragmaprim/internal/queue"
	"pragmaprim/internal/stack"
	"pragmaprim/internal/trie"
	"pragmaprim/internal/workload"
)

// --- E1: uncontended SCX cost (k+1 CAS, f+2 writes) ------------------------

// BenchmarkStepCountSCX times one LLX-per-record + SCX transaction over k
// records finalizing f, and reports the measured CAS and write steps per
// operation next to the paper's k+1 and f+2.
func BenchmarkStepCountSCX(b *testing.B) {
	for k := 1; k <= 5; k++ {
		for _, f := range []int{0, k} {
			b.Run(fmt.Sprintf("k=%d/f=%d", k, f), func(b *testing.B) {
				p := core.NewProcess()
				var snap core.Fields
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// Fresh records per iteration: finalized records cannot
					// be reused.
					recs := make([]*core.Record, k)
					for j := range recs {
						recs[j] = core.NewTypedRecord(2, 0)
						recs[j].SetWord(0, uint64(j))
					}
					b.StartTimer()
					for _, r := range recs {
						if st := p.LLXFields(r, &snap); st != core.LLXOK {
							b.Fatal("LLX failed")
						}
					}
					if !p.SCXWord(recs, recs[k-f:], recs[0].WordField(1), 1) {
						b.Fatal("SCX failed")
					}
				}
				b.ReportMetric(float64(p.Metrics.CASSteps())/float64(b.N), "CAS/op")
				b.ReportMetric(float64(p.Metrics.WriteSteps())/float64(b.N), "writes/op")
			})
		}
	}
}

// --- E2: VLX cost (k reads) -------------------------------------------------

// BenchmarkVLX times a VLX over k linked records.
func BenchmarkVLX(b *testing.B) {
	for k := 1; k <= 8; k *= 2 {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := core.NewProcess()
			recs := make([]*core.Record, k)
			var snap core.Fields
			for j := range recs {
				recs[j] = core.NewTypedRecord(1, 0)
				if st := p.LLXFields(recs[j], &snap); st != core.LLXOK {
					b.Fatal("LLX failed")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !p.VLX(recs) {
					b.Fatal("VLX failed")
				}
			}
			b.ReportMetric(float64(p.Metrics.VLXReads)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkLLXSnapshot times an uncontended LLX snapshot of a 2-field record
// into a caller-owned Fields (0 allocs/op). The body is shared with
// cmd/bench -corejson via internal/benchcore.
func BenchmarkLLXSnapshot(b *testing.B) { benchcore.LLXSnapshot(b) }

// BenchmarkFieldRead times the plain read the paper's Proposition 2 lets
// searches use in place of LLX.
func BenchmarkFieldRead(b *testing.B) { benchcore.FieldRead(b) }

// BenchmarkTemplateSCXCycle routes the scx_cycle_k1 transaction through the
// template engine; compare against BenchmarkKCASvsSCX/SCX to see the
// engine's overhead over the hand-rolled loop.
func BenchmarkTemplateSCXCycle(b *testing.B) { benchcore.TemplateSCXCycle(b) }

// BenchmarkHandleRoundtrip times a pooled Handle Acquire/Release pair, the
// per-operation cost of the convenience API.
func BenchmarkHandleRoundtrip(b *testing.B) { benchcore.HandleRoundtrip(b) }

// --- E3: disjoint vs. shared SCX success ------------------------------------

// BenchmarkDisjointSCX runs SCX loops on per-goroutine records: the paper
// claims every one succeeds (no retries, no aborts).
func BenchmarkDisjointSCX(b *testing.B) { benchcore.DisjointSCX(b) }

// BenchmarkSharedSCX runs SCX retry loops against one shared record — the
// contended counterpoint to BenchmarkDisjointSCX.
func BenchmarkSharedSCX(b *testing.B) {
	r := core.NewTypedRecord(1, 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		p := core.NewProcess()
		var snap core.Fields
		for pb.Next() {
			for {
				if st := p.LLXFields(r, &snap); st != core.LLXOK {
					continue
				}
				if p.SCXWord([]*core.Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
					break
				}
			}
		}
	})
}

// --- E4: SCX vs. k-CAS vs. KCSS ---------------------------------------------

// BenchmarkKCASvsSCX compares an uncontended k-record SCX transaction against
// an uncontended k-word MWCAS and a k-location KCSS over the same width
// (bodies shared with cmd/bench -corejson via internal/benchcore).
func BenchmarkKCASvsSCX(b *testing.B) {
	for k := 2; k <= 5; k++ {
		b.Run(fmt.Sprintf("SCX/k=%d", k), func(b *testing.B) {
			benchcore.SCXCycle(b, k)
		})
		b.Run(fmt.Sprintf("MWCAS/k=%d", k), func(b *testing.B) {
			benchcore.MWCASCycle(b, k)
		})
		b.Run(fmt.Sprintf("KCSS/k=%d", k), func(b *testing.B) {
			benchcore.KCSSCycle(b, k)
		})
	}
}

// --- E8: data-structure throughput -------------------------------------------

// benchSession drives one container session per worker with a standard
// mixed workload.
func benchSession(b *testing.B, f harness.Factory, cfg workload.Config) {
	b.Helper()
	inst := f.New()
	pre := inst.NewSession()
	for k := 0; k < cfg.KeyRange; k += 2 {
		pre.Insert(k)
	}
	pre.Close()
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := inst.NewSession()
		defer s.Close()
		id := seed.Add(1)
		keys := cfg.NewKeyGen(id*2 + 1)
		ops := cfg.NewOpGen(id*2 + 2)
		for pb.Next() {
			key := keys.Next()
			switch ops.Next() {
			case workload.OpGet:
				s.Get(key)
			case workload.OpInsert:
				s.Insert(key)
			default:
				s.Delete(key)
			}
		}
	})
}

// BenchmarkThroughput regenerates the E8 series: every structure under the
// read-mostly and update-heavy mixes (threads come from -cpu).
func BenchmarkThroughput(b *testing.B) {
	mixes := map[string]workload.Mix{
		"readmostly":  workload.ReadMostly,
		"updateheavy": workload.UpdateHeavy,
	}
	for _, f := range harness.Factories() {
		for mixName, mix := range mixes {
			b.Run(fmt.Sprintf("%s/%s", f.Name, mixName), func(b *testing.B) {
				benchSession(b, f, workload.Config{
					KeyRange: 1 << 10, Dist: workload.Uniform, Mix: mix,
				})
			})
		}
	}
}

// BenchmarkThroughputZipf is the skewed-contention variant of E8.
func BenchmarkThroughputZipf(b *testing.B) {
	for _, f := range harness.Factories() {
		b.Run(f.Name, func(b *testing.B) {
			benchSession(b, f, workload.Config{
				KeyRange: 1 << 10, Dist: workload.Zipf, Mix: workload.Balanced,
			})
		})
	}
}

// BenchmarkThroughputSharded is the E9 series in go-test form: the multiset
// behind 1/2/4/8 hash shards under the zipf hot-key update mix.
func BenchmarkThroughputSharded(b *testing.B) {
	base := harness.LLXMultisetFactory()
	for _, n := range []int{1, 2, 4, 8} {
		f := base
		if n > 1 {
			f = harness.ShardedFactory(base, n)
		}
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchSession(b, f, workload.Config{
				KeyRange: 1 << 10, Dist: workload.Zipf, Mix: workload.UpdateHeavy,
			})
		})
	}
}

// BenchmarkShardedMultisetOps times the single-threaded sharded multiset
// operations next to BenchmarkMultisetOps — the per-op cost of the
// container+shard layer (bodies shared with cmd/bench via benchcore).
func BenchmarkShardedMultisetOps(b *testing.B) {
	b.Run("Get", benchcore.ShardedMultisetGet)
	b.Run("InsertExisting", benchcore.ShardedMultisetInsertExisting)
	b.Run("InsertDeleteNew", benchcore.ShardedMultisetInsertDeleteNew)
}

// --- Single-threaded operation costs -----------------------------------------

// BenchmarkMultisetOps times the three multiset operations in isolation on a
// prefilled structure (bodies shared with cmd/bench via internal/benchcore).
func BenchmarkMultisetOps(b *testing.B) {
	b.Run("Get", benchcore.MultisetGet)
	b.Run("InsertExisting", benchcore.MultisetInsertExisting)
	b.Run("InsertDeleteNew", benchcore.MultisetInsertDeleteNew)
}

// BenchmarkTrieOps times the three Patricia-trie operations in isolation.
func BenchmarkTrieOps(b *testing.B) {
	const keys = 1 << 10
	newFilled := func() trie.Session[int] {
		t := trie.New[int]()
		s := t.Attach(core.NewHandle())
		for k := 0; k < keys; k++ {
			s.Put(uint64(k), k)
		}
		return s
	}
	b.Run("Get", func(b *testing.B) {
		s := newFilled()
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Get(uint64(rng.Intn(keys)))
		}
	})
	b.Run("PutExisting", func(b *testing.B) {
		s := newFilled()
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put(uint64(rng.Intn(keys)), i)
		}
	})
	b.Run("PutDeleteNew", func(b *testing.B) {
		s := newFilled()
		rng := rand.New(rand.NewSource(3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(keys + rng.Intn(keys))
			s.Put(k, i)
			s.Delete(k)
		}
	})
}

// BenchmarkQueueOps times enqueue/dequeue pairs, single-threaded and
// contended.
func BenchmarkQueueOps(b *testing.B) {
	b.Run("EnqueueDequeue", func(b *testing.B) {
		q := queue.New[int]()
		s := q.Attach(core.NewHandle())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Enqueue(i)
			s.Dequeue()
		}
	})
	b.Run("Contended", func(b *testing.B) {
		q := queue.New[int]()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			s := q.Attach(core.NewHandle())
			i := 0
			for pb.Next() {
				if i%2 == 0 {
					s.Enqueue(i)
				} else {
					s.Dequeue()
				}
				i++
			}
		})
	})
}

// BenchmarkStackOps times push/pop pairs, single-threaded and contended.
func BenchmarkStackOps(b *testing.B) {
	b.Run("PushPop", func(b *testing.B) {
		st := stack.New[int]()
		s := st.Attach(core.NewHandle())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Push(i)
			s.Pop()
		}
	})
	b.Run("Contended", func(b *testing.B) {
		st := stack.New[int]()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			s := st.Attach(core.NewHandle())
			i := 0
			for pb.Next() {
				if i%2 == 0 {
					s.Push(i)
				} else {
					s.Pop()
				}
				i++
			}
		})
	})
}

// BenchmarkBSTOps times the three BST operations in isolation.
func BenchmarkBSTOps(b *testing.B) {
	const keys = 1 << 10
	newFilled := func() bst.Session[int, int] {
		t := bst.New[int, int]()
		s := t.Attach(core.NewHandle())
		perm := rand.New(rand.NewSource(7)).Perm(keys)
		for _, k := range perm {
			s.Put(k, k)
		}
		return s
	}
	b.Run("Get", func(b *testing.B) {
		s := newFilled()
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Get(rng.Intn(keys))
		}
	})
	b.Run("PutExisting", func(b *testing.B) {
		s := newFilled()
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put(rng.Intn(keys), i)
		}
	})
	b.Run("PutDeleteNew", func(b *testing.B) {
		s := newFilled()
		rng := rand.New(rand.NewSource(3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys + rng.Intn(keys)
			s.Put(k, k)
			s.Delete(k)
		}
	})
}

// BenchmarkWAL mirrors the wal_append / wal_group_commit / wal_append_batch
// rows of cmd/bench -corejson: the durable write path's append cost in
// isolation, the full append+group-commit cycle at the server's pipeline
// shape (one fsync per 128-record group), and the batched append the
// server's batch path uses (one mutex round per 128-record batch).
func BenchmarkWALAppend(b *testing.B)      { benchcore.WALAppend(b) }
func BenchmarkWALGroupCommit(b *testing.B) { benchcore.WALGroupCommit(b) }
func BenchmarkWALAppendBatch(b *testing.B) { benchcore.WALAppendBatch(b) }

// --- Hash map ----------------------------------------------------------------

// BenchmarkHashmapOps times the hash map's operations in isolation on a
// prefilled map (bodies shared with cmd/bench via internal/benchcore):
// O(1) Get, the no-op insert of a present key, and the warm
// insert/delete pair that exercises node recycling.
func BenchmarkHashmapOps(b *testing.B) {
	b.Run("Get", benchcore.HashmapGet)
	b.Run("InsertExisting", benchcore.HashmapInsertExisting)
	b.Run("InsertDeleteNew", benchcore.HashmapInsertDeleteNew)
}

// BenchmarkHashmapGetKeyspace sweeps the prefill size across three decades.
// The rows falsify (or confirm) the O(1) claim directly: multiset_get grows
// with the keyspace, these must stay flat up to cache effects — and
// BenchmarkBuiltinMapGetKeyspace is the control that quantifies those: Go's
// own open-addressed map pays the same DRAM-latency growth once the table
// outgrows the LLC, so "flat" means "tracks the built-in map's ratio", not
// "ignores the memory hierarchy".
func BenchmarkHashmapGetKeyspace(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchcore.HashmapGetKeyspace(b, n)
		})
	}
}

func BenchmarkBuiltinMapGetKeyspace(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchcore.BuiltinMapGetKeyspace(b, n)
		})
	}
}

// --- Parallel lane (-cpu 1,2,4) ----------------------------------------------

// The BenchmarkParallel* set is the multi-core comparison lane: the same
// mixed workload shape against the lock-free hash map, sync.Map, an
// RWMutex-guarded map, and the sharded LLX/SCX multiset, at 100% (pure
// read), 90% and 50% read mixes, plus a Zipf-skewed 90%-read lane (hot-key
// contention). Run with `go test -bench BenchmarkParallel -cpu 1,2,4`;
// cmd/bench -parallel runs the same bodies and records BENCH_parallel.json
// keyed by GOMAXPROCS.

func BenchmarkParallelHashmapRead100(b *testing.B)    { benchcore.ParallelHashmap(b, 100) }
func BenchmarkParallelHashmapRead90(b *testing.B)     { benchcore.ParallelHashmap(b, 90) }
func BenchmarkParallelHashmapRead50(b *testing.B)     { benchcore.ParallelHashmap(b, 50) }
func BenchmarkParallelHashmapRead90Zipf(b *testing.B) { benchcore.ParallelHashmapZipf(b, 90) }

func BenchmarkParallelSyncMapRead100(b *testing.B)    { benchcore.ParallelSyncMap(b, 100) }
func BenchmarkParallelSyncMapRead90(b *testing.B)     { benchcore.ParallelSyncMap(b, 90) }
func BenchmarkParallelSyncMapRead50(b *testing.B)     { benchcore.ParallelSyncMap(b, 50) }
func BenchmarkParallelSyncMapRead90Zipf(b *testing.B) { benchcore.ParallelSyncMapZipf(b, 90) }

func BenchmarkParallelMutexMapRead100(b *testing.B)    { benchcore.ParallelMutexMap(b, 100) }
func BenchmarkParallelMutexMapRead90(b *testing.B)     { benchcore.ParallelMutexMap(b, 90) }
func BenchmarkParallelMutexMapRead50(b *testing.B)     { benchcore.ParallelMutexMap(b, 50) }
func BenchmarkParallelMutexMapRead90Zipf(b *testing.B) { benchcore.ParallelMutexMapZipf(b, 90) }

func BenchmarkParallelShardedMultisetRead100(b *testing.B) { benchcore.ParallelShardedMultiset(b, 100) }
func BenchmarkParallelShardedMultisetRead90(b *testing.B)  { benchcore.ParallelShardedMultiset(b, 90) }
func BenchmarkParallelShardedMultisetRead50(b *testing.B)  { benchcore.ParallelShardedMultiset(b, 50) }
func BenchmarkParallelShardedMultisetRead90Zipf(b *testing.B) {
	benchcore.ParallelShardedMultisetZipf(b, 90)
}
