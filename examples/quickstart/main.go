// Quickstart: the LLX/SCX primitives on a bare Data-record.
//
// This example mirrors the paper's Section 3 walk-through: create a
// Data-record with mutable fields, snapshot it with LLX, update one field
// with SCX, watch a conflicting SCX fail, and finalize a record so it can
// never change again. Fields are typed words, and the paper requires that a
// field is never given a value it held before, so every update here writes
// a larger count.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"pragmaprim/internal/core"
)

func main() {
	// A Data-record with two mutable word fields (hits, edits). Immutable
	// data (here, its name) lives in whatever embeds the record.
	const name = "demo-record"
	rec := core.NewTypedRecord(2, 0)
	fmt.Printf("record %q starts with hits=%d edits=%d\n", name, rec.Word(0), rec.Word(1))

	// Each participating goroutine acquires a Handle from the shared pool;
	// the Handle's Process holds its table of LLX results (the links SCX
	// and VLX validate against). Data-structure code never sees these:
	// the internal/template engine drives the primitives for it.
	ah := core.AcquireHandle()
	defer ah.Release()
	bh := core.AcquireHandle()
	defer bh.Release()
	alice := ah.Process()
	bob := bh.Process()

	// Alice snapshots the record and bumps its hits with an SCX that
	// depends on that snapshot.
	var snap, bobSnap core.Fields
	st := alice.LLXFields(rec, &snap)
	fmt.Printf("alice LLX -> [%d %d] %v\n", snap.Word(0), snap.Word(1), st)
	ok := alice.SCXWord([]*core.Record{rec}, nil, rec.WordField(0), snap.Word(0)+1)
	fmt.Printf("alice SCX(hits := %d) -> %v; hits is now %d\n", snap.Word(0)+1, ok, rec.Word(0))

	// Bob linked BEFORE alice's next update, so his SCX must fail: the
	// record changed since his LLX. That failed SCX writes nothing.
	bob.LLXFields(rec, &bobSnap)
	// ... meanwhile alice updates again ...
	alice.LLXFields(rec, &snap)
	alice.SCXWord([]*core.Record{rec}, nil, rec.WordField(1), snap.Word(1)+1)
	ok = bob.SCXWord([]*core.Record{rec}, nil, rec.WordField(1), bobSnap.Word(1)+10)
	fmt.Printf("bob's stale SCX -> %v; edits is %d\n", ok, rec.Word(1))

	// VLX validates that a set of records is unchanged since the links.
	a := core.NewTypedRecord(1, 0)
	a.SetWord(0, 10)
	b := core.NewTypedRecord(1, 0)
	b.SetWord(0, 20)
	var sa, sb core.Fields
	alice.LLXFields(a, &sa)
	alice.LLXFields(b, &sb)
	fmt.Printf("alice VLX(a,b) with nothing changed -> %v\n", alice.VLX([]*core.Record{a, b}))
	bob.LLXFields(b, &sb)
	bob.SCXWord([]*core.Record{b}, nil, b.WordField(0), sb.Word(0)+1)
	fmt.Printf("alice VLX(a,b) after bob touched b -> %v\n", alice.VLX([]*core.Record{a, b}))

	// SCX can atomically update one record AND finalize others — the paper's
	// key extension over LL/SC. Here alice adds a's value into b and retires
	// a forever.
	alice.LLXFields(a, &sa)
	alice.LLXFields(b, &sb)
	ok = alice.SCXWord([]*core.Record{b, a}, []*core.Record{a}, b.WordField(0), sb.Word(0)+sa.Word(0))
	fmt.Printf("alice finalizing SCX -> %v; b is now %d; a finalized? %v\n", ok, b.Word(0), a.Finalized())
	if st := bob.LLXFields(a, &sa); st == core.LLXFinalized {
		fmt.Println("bob's LLX(a) reports Finalized: a can never change again")
	}
}
