// Package pragmaprim is a from-scratch Go reproduction of Brown, Ellen and
// Ruppert, "Pragmatic Primitives for Non-blocking Data Structures"
// (PODC 2013): the LLX/SCX/VLX primitives implemented from single-word CAS,
// the paper's multiset running example, an LLX/SCX external binary search
// tree, the baselines the paper compares against (LL/SC, KCSS, multi-word
// CAS, lock-based lists), and a harness that regenerates every measurable
// claim in the paper. DESIGN.md documents the typed-word record layout, the
// ABA argument, the allocation-free fast path, and the template engine +
// process runtime; BENCH_core.json is the checked-in machine-readable
// microbenchmark dump (regenerate with cmd/bench -corejson).
//
// The implementation is layered: internal/core provides the primitives and
// the process runtime (a lock-free Handle pool, so callers never manage
// *core.Process by hand), internal/template provides the one update engine
// every structure's retry loop runs on, and the five data structures are
// thin attempt bodies over that engine. Public structure APIs take no
// Process: plain calls acquire a pooled Handle per operation, hot paths
// bind one once via each structure's Attach/Session API. The eighth
// structure, internal/hashmap, is the degenerate case of the template: a
// lock-free resizable hash map whose updates are one-record SCXs (plain
// CASes on bucket heads over immutable chains), giving O(1) Get where the
// keyed structures walk lists and trees; its incremental resize migrates
// buckets through primed/forwarded sentinels with old tables retired
// through the epoch domain. Above the structures, internal/container gives
// all of them (plus the lock baselines) one typed result-returning
// interface, and internal/shard
// hash-partitions any container across independent instances — the scale
// lever the shard-scaling experiments (E9/E10) measure. On top of the
// containers sits the network service layer: internal/proto (a RESP-style
// KV wire protocol in length-prefixed frames, batched decode and vectored
// jumbo replies), internal/server (a TCP server pinning one container
// Session per connection; the serve loop works in batches — decode
// everything one socket read delivered, apply it under one epoch guard,
// answer with one write — with conservation-preserving graceful shutdown)
// and internal/client (a pipelining client) — served by cmd/server and
// measured across a real socket by cmd/bench -loadgen and the
// -serverbench/-compareserver parallel server lane (BENCH_server.json is
// the checked-in trajectory, one row per workload cell per GOMAXPROCS).
// The durability layer (internal/wal +
// internal/snapshot, wired in with cmd/server -wal-dir) upgrades the
// server's conservation contract to acked-means-durable: group-committed
// write-ahead logging (one fsync per pipelined batch, 0 allocs/op),
// epoch-consistent snapshots bounding replay, and kill -9 crash recovery
// audited end to end by cmd/stress -crash and scripts/crash_smoke.sh.
// Threaded through all of it is the observability plane (internal/obs): an
// allocation-free metrics registry of padded counters, pull gauges and
// striped atomic histograms that is the server's one metrics store — server
// op counts, batch sizes and per-op latency, WAL fsync/commit/group-size,
// engine and per-shard contention, epoch-reclaim gauges all live in it —
// plus a lock-free slow-op trace ring. The registry renders generically as
// one line per sample (STATS and /metrics) and as Prometheus exposition
// (/metrics?format=prom, round-tripped by the in-repo parser); the trace
// ring is served by the TRACE command and /trace, and cmd/server -pprof
// adds opt-in net/http/pprof.
//
// The implementation lives under internal/:
//
//	internal/core            LLX, SCX, VLX from CAS (the paper's contribution),
//	                         plus the ProcessPool/Handle runtime
//	internal/template        the generic LLX→validate→SCX update engine:
//	                         retry policies, contention counters, snapshot reuse
//	internal/multiset        Section 5 multiset on a sorted linked list
//	internal/bst             Section 6 application: external BST
//	internal/trie            non-blocking binary Patricia trie
//	internal/queue           Michael-Scott-shaped FIFO queue
//	internal/stack           Treiber-shaped LIFO stack
//	internal/hashmap         lock-free resizable hash map: O(1) Get,
//	                         plain-CAS bucket updates, incremental
//	                         primed-pointer resize (DESIGN.md "The hash map")
//	internal/hashutil        the shared integer hashes: Fibonacci routing
//	                         (shard) and the splitmix64 finalizer (hashmap)
//	internal/reclaim         DEBRA-style epoch reclamation: announcement
//	                         slots, limbo lists, typed freelists — the
//	                         GC-free steady state for nodes and descriptors
//	internal/llsc            single-word LL/SC from CAS
//	internal/kcss            k-compare-single-swap baseline
//	internal/mwcas           descriptor-based k-CAS baseline
//	internal/lockds          lock-based multiset baselines
//	internal/container       the typed Container/Session interface every
//	                         structure is driven through (ops return results)
//	internal/shard           hash-partitioned Sharded wrapper over any
//	                         container: Fibonacci routing, per-shard counters
//	internal/proto           the KV wire protocol: zero-copy streaming
//	                         frame parser (batch drain of buffered frames)
//	                         and batching writer (vectored jumbo replies)
//	internal/server          the TCP serving layer: pinned per-connection
//	                         sessions, batched decode→apply→reply under one
//	                         epoch guard per batch, graceful shutdown
//	internal/client          pipelining client (sync + async-batch APIs),
//	                         read timeouts and reconnect-with-backoff
//	internal/obs             the observability plane: lock-free registry
//	                         (counters, pull gauges, striped histograms),
//	                         slow-op trace ring, Prometheus exposition
//	                         writer + parser
//	internal/wal             group-committed write-ahead log: CRC-framed
//	                         records, segment rotation, torn-tail replay,
//	                         injectable file system (MemFS crash model,
//	                         FaultFS failpoints)
//	internal/snapshot        epoch-consistent snapshots of a live sharded
//	                         container, WAL truncation, crash recovery
//	internal/linearizability Wing-Gong checker used by the tests
//	internal/history         concurrent history recorder
//	internal/workload        key distributions and operation mixes
//	internal/stats           summary statistics and table rendering
//	internal/harness         experiments E1-E10
//	internal/benchcore       shared bodies of the core microbenchmarks
//
// The benchmarks in bench_test.go regenerate the experiment series from Go
// tooling (go test -bench=.), and cmd/bench prints the full tables and the
// core fast-path microbenchmark JSON.
package pragmaprim
