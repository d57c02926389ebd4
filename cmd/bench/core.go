package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"pragmaprim/internal/benchcore"
)

// The core microbenchmark suite measures the LLX/SCX fast path — latency and
// allocations per operation — and dumps the results as machine-readable JSON
// (BENCH_core.json at the repository root is the checked-in trajectory). The
// benchmark bodies live in internal/benchcore, shared with bench_test.go, so
// the dump and `go test -bench` always measure the same workloads.

// coreBenchResult is one row of the JSON dump.
type coreBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// coreBenchDump is the whole JSON document.
type coreBenchDump struct {
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Results    []coreBenchResult `json:"results"`
}

type coreBench struct {
	name     string
	parallel bool // meaningless at GOMAXPROCS=1; skipped there
	fn       func(b *testing.B)
}

func coreBenchmarks() []coreBench {
	benches := []coreBench{
		{"llx_into", false, benchcore.LLXSnapshot},
		{"field_read", false, benchcore.FieldRead},
		{"disjoint_scx_parallel", true, benchcore.DisjointSCX},
	}
	for k := 1; k <= 4; k++ {
		k := k
		benches = append(benches, coreBench{
			fmt.Sprintf("scx_cycle_k%d", k),
			false,
			func(b *testing.B) { benchcore.SCXCycle(b, k) },
		})
	}
	benches = append(benches,
		coreBench{"kcss_k2", false, func(b *testing.B) { benchcore.KCSSCycle(b, 2) }},
		coreBench{"mwcas_k2", false, func(b *testing.B) { benchcore.MWCASCycle(b, 2) }},
	)
	benches = append(benches,
		coreBench{"scx_cycle_recycled", false, benchcore.SCXCycleRecycled},
		coreBench{"template_scx_cycle", false, benchcore.TemplateSCXCycle},
		coreBench{"handle_roundtrip", false, benchcore.HandleRoundtrip},
		coreBench{"reclaim_retire", false, benchcore.ReclaimRetire},
	)
	benches = append(benches,
		coreBench{"multiset_get", false, benchcore.MultisetGet},
		coreBench{"multiset_insert_existing", false, benchcore.MultisetInsertExisting},
		coreBench{"multiset_insert_delete_new", false, benchcore.MultisetInsertDeleteNew},
	)
	benches = append(benches,
		coreBench{"sharded_multiset_get", false, benchcore.ShardedMultisetGet},
		coreBench{"sharded_multiset_insert_existing", false, benchcore.ShardedMultisetInsertExisting},
		coreBench{"sharded_multiset_insert_delete_new", false, benchcore.ShardedMultisetInsertDeleteNew},
	)
	benches = append(benches,
		coreBench{"hashmap_get", false, benchcore.HashmapGet},
		coreBench{"hashmap_insert_existing", false, benchcore.HashmapInsertExisting},
		coreBench{"hashmap_put", false, benchcore.HashmapInsertDeleteNew},
		coreBench{"hashmap_get_1e6", false,
			func(b *testing.B) { benchcore.HashmapGetKeyspace(b, 1_000_000) }},
		// The built-in-map control at the same keyspace: the cache-hierarchy
		// floor any O(1) map pays at 1e6 random keys on this host. Read
		// hashmap_get_1e6 against this row, not against hashmap_get.
		coreBench{"builtin_map_get_1e6", false,
			func(b *testing.B) { benchcore.BuiltinMapGetKeyspace(b, 1_000_000) }},
	)
	benches = append(benches,
		coreBench{"wal_append", false, benchcore.WALAppend},
		coreBench{"wal_group_commit", false, benchcore.WALGroupCommit},
		coreBench{"wal_append_batch", false, benchcore.WALAppendBatch},
	)
	return benches
}

// collectCoreBench runs the suite, printing a human-readable table.
func collectCoreBench() (coreBenchDump, error) {
	dump := coreBenchDump{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%-36s %12s %12s %10s\n", "benchmark", "ns/op", "allocs/op", "B/op")
	for _, cb := range coreBenchmarks() {
		if cb.parallel && dump.GOMAXPROCS == 1 {
			// A "parallel" row measured serially would be misleading in the
			// checked-in trajectory; leave it out rather than mislabel it.
			fmt.Printf("%-36s skipped: GOMAXPROCS=1 makes a parallel benchmark serial\n", cb.name)
			continue
		}
		r := testing.Benchmark(cb.fn)
		if r.N == 0 {
			return dump, fmt.Errorf("benchmark %s failed (b.Fatal/b.Fail inside the body)", cb.name)
		}
		res := coreBenchResult{
			Name:        cb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		dump.Results = append(dump.Results, res)
		fmt.Printf("%-36s %12.1f %12d %10d\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}
	return dump, nil
}

// runCoreBench runs the suite and writes the JSON dump to path.
func runCoreBench(path string) error {
	dump, err := collectCoreBench()
	if err != nil {
		return err
	}
	return writeDump(dump, path)
}

func writeDump(dump coreBenchDump, path string) error {
	out, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// loadDump reads a prior -corejson file.
func loadDump(path string) (coreBenchDump, error) {
	var dump coreBenchDump
	data, err := os.ReadFile(path)
	if err != nil {
		return dump, err
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		return dump, fmt.Errorf("%s: %w", path, err)
	}
	return dump, nil
}

// runCompareBench runs the suite and prints a benchstat-style delta table
// against the baseline file. When maxAllocRegress is set it returns an
// error if any row tracked by both runs regressed in allocs/op — timings
// are noisy on shared runners, allocation counts are not, so the CI gate
// compares only allocations. When outPath is non-empty the fresh results
// are also written there.
func runCompareBench(baselinePath, outPath string, maxAllocRegress bool) error {
	base, err := loadDump(baselinePath)
	if err != nil {
		return err
	}
	baseRows := make(map[string]coreBenchResult, len(base.Results))
	for _, r := range base.Results {
		baseRows[r.Name] = r
	}
	dump, err := collectCoreBench()
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := writeDump(dump, outPath); err != nil {
			return err
		}
	}

	fmt.Printf("\ncompare vs %s\n", baselinePath)
	fmt.Printf("%-36s %12s %12s %8s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "Δallocs")
	var regressed []string
	for _, r := range dump.Results {
		old, ok := baseRows[r.Name]
		if !ok {
			fmt.Printf("%-36s %12s %12.1f %8s %10s %10d %8s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "-")
			continue
		}
		delta := "~"
		if old.NsPerOp > 0 {
			pct := (r.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
			if pct <= -2 || pct >= 2 {
				delta = fmt.Sprintf("%+.1f%%", pct)
			}
		}
		dAllocs := r.AllocsPerOp - old.AllocsPerOp
		fmt.Printf("%-36s %12.1f %12.1f %8s %10d %10d %+8d\n",
			r.Name, old.NsPerOp, r.NsPerOp, delta, old.AllocsPerOp, r.AllocsPerOp, dAllocs)
		if dAllocs > 0 {
			regressed = append(regressed, fmt.Sprintf("%s (%d -> %d allocs/op)",
				r.Name, old.AllocsPerOp, r.AllocsPerOp))
		}
	}
	for _, r := range base.Results {
		found := false
		for _, n := range dump.Results {
			if n.Name == r.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-36s %12.1f %12s  (row no longer measured)\n", r.Name, r.NsPerOp, "-")
		}
	}
	if maxAllocRegress && len(regressed) > 0 {
		return fmt.Errorf("allocs/op regressed on %d row(s): %v", len(regressed), regressed)
	}
	return nil
}
