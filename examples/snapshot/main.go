// Snapshot example: consistent multi-record reads with VLX.
//
// Concurrent workers move money between bank accounts; each transfer is a
// debit SCX followed by a credit SCX, so at any instant the sum of balances
// is at most the grand total (some money is in flight) and never above it.
// An auditor takes atomic cross-account snapshots with Process.SnapshotAll
// (one LLX per account validated by a single VLX): every validated snapshot
// must respect the at-most-grand-total invariant. Plain unvalidated reads
// could tear across many transfers and report totals above the grand total;
// the VLX-validated snapshots cannot.
//
// A balance goes up and down, so it can return to a value it held before,
// which the paper's SCX forbids (Section 4.1). Each account's word field
// therefore packs a version in its high 32 bits above the balance in its
// low 32 bits: every update bumps the version, so the word only ever
// increases.
//
// Run with: go run ./examples/snapshot
package main

import (
	"fmt"
	"math/rand"
	"sync"

	"pragmaprim/internal/core"
	"pragmaprim/internal/template"
)

const (
	accounts       = 6
	initialBalance = 1000
	transfers      = 2000
	workers        = 3
)

func main() {
	// One record per account; word 0 is the versioned balance.
	recs := make([]*core.Record, accounts)
	for i := range recs {
		recs[i] = core.NewTypedRecord(1, 0)
		recs[i].SetWord(0, pack(0, initialBalance))
	}

	// Writers move money with single-record SCXs: debit one account, then
	// credit another. Individually atomic, pairwise not — exactly the
	// situation where a reader needs a cross-record atomic snapshot to see
	// a consistent total.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			h := core.AcquireHandle()
			defer h.Release()
			for i := 0; i < transfers; i++ {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				amount := 1 + rng.Intn(20)
				mutate(h, recs[from], -amount)
				mutate(h, recs[to], amount)
			}
		}(w)
	}

	// The auditor snapshots all accounts atomically. Because each transfer
	// is two separate SCXs, the snapshot total may be below the grand total
	// by at most the workers' in-flight amounts (bounded by workers*maxAmt),
	// but it can NEVER exceed it, and it can never show a torn single
	// account. Plain reads could drift arbitrarily across many transfers.
	ah := core.AcquireHandle()
	defer ah.Release()
	p := ah.Process()
	var audits, validated int
	minTotal, maxTotal := 1<<62, -1
	snaps := make([]core.Fields, accounts)
	for validated < 300 {
		audits++
		if !p.SnapshotAll(recs, snaps) {
			continue
		}
		total := 0
		for i := range snaps {
			total += balance(snaps[i].Word(0))
		}
		if total < minTotal {
			minTotal = total
		}
		if total > maxTotal {
			maxTotal = total
		}
		if total > accounts*initialBalance {
			fmt.Printf("AUDIT VIOLATION: snapshot total %d exceeds %d\n",
				total, accounts*initialBalance)
			return
		}
		validated++
	}
	wg.Wait()

	grand := accounts * initialBalance
	fmt.Printf("%d audits, %d validated atomic snapshots\n", audits, validated)
	fmt.Printf("snapshot totals ranged [%d, %d]; invariant: never above %d\n",
		minTotal, maxTotal, grand)

	// Quiescent: all money accounted for.
	total := 0
	for _, r := range recs {
		total += balance(r.Word(0))
	}
	fmt.Printf("final total = %d (expected %d)\n", total, grand)
}

// pack builds an account word: version above, balance (as int32) below.
func pack(version uint32, balance int) uint64 {
	return uint64(version)<<32 | uint64(uint32(int32(balance)))
}

// balance extracts the balance from an account word.
func balance(w uint64) int { return int(int32(uint32(w))) }

// mutate adds delta to the account's balance. The retry loop is the
// template engine's: the attempt body only says "snapshot, then commit the
// new balance under the next version".
func mutate(h *core.Handle, r *core.Record, delta int) {
	template.Run(h, nil, nil, func(c *template.Ctx) (struct{}, template.Action) {
		snap, st := c.LLXF(r)
		if st != core.LLXOK {
			return struct{}{}, template.Retry
		}
		w := snap.Word(0)
		next := pack(uint32(w>>32)+1, balance(w)+delta)
		if c.SCXWord([]*core.Record{r}, nil, r.WordField(0), next) {
			return struct{}{}, template.Done
		}
		return struct{}{}, template.Retry
	})
}
