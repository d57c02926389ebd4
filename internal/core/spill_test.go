package core_test

import (
	"testing"
	"unsafe"

	"pragmaprim/internal/core"
)

// The spill tests drive the fixed-capacity fast-path structures past their
// inline limits — V-sequences longer than the descriptor's inline arrays,
// records wider than a Fields' inline arrays, and more live links than
// the open-addressed table holds — and check that behavior is unchanged.

// TestSCXWideVSequence runs an SCX whose V and R sequences exceed the
// descriptor's inline capacity (maxInlineV = 4).
func TestSCXWideVSequence(t *testing.T) {
	const k = 7
	p := core.NewProcess()
	recs := make([]*core.Record, k)
	for i := range recs {
		recs[i] = newWords(uint64(i))
	}
	for _, r := range recs {
		if _, st := llx(p, r); st != core.LLXOK {
			t.Fatalf("LLX failed: %v", st)
		}
	}
	rset := recs[1:] // finalize 6 records: the R sequence spills too
	if !p.SCXWord(recs, rset, recs[0].WordField(0), 100) {
		t.Fatal("wide SCX failed")
	}
	if got := recs[0].Word(0); got != 100 {
		t.Errorf("field = %v, want 100", got)
	}
	for i, r := range rset {
		if !r.Finalized() {
			t.Errorf("rset[%d] not finalized", i)
		}
	}
	if recs[0].Finalized() {
		t.Error("recs[0] finalized but not in R")
	}
	// A subsequent LLX on a finalized record must report it.
	if _, st := llx(p, recs[1]); st != core.LLXFinalized {
		t.Errorf("LLX on finalized record = %v, want Finalized", st)
	}
}

// TestSCXWideVSequenceExposed checks that V() and R() round-trip the spilled
// sequences for instrumentation.
func TestSCXWideVSequenceExposed(t *testing.T) {
	const k = 6
	p := core.NewProcess()
	recs := make([]*core.Record, k)
	for i := range recs {
		recs[i] = newWords(uint64(i))
		if _, st := llx(p, recs[i]); st != core.LLXOK {
			t.Fatalf("LLX failed")
		}
	}
	if !p.SCXWord(recs, recs[:k-1], recs[0].WordField(0), 100) {
		t.Fatal("wide SCX failed")
	}
	u := recs[k-1].Info()
	if u == nil {
		t.Fatal("no info record")
	}
	if got := u.V(); len(got) != k {
		t.Fatalf("V() length = %d, want %d", len(got), k)
	} else {
		for i := range got {
			if got[i] != recs[i] {
				t.Errorf("V()[%d] mismatch", i)
			}
		}
	}
	if got := u.R(); len(got) != k-1 {
		t.Errorf("R() length = %d, want %d", len(got), k-1)
	}
}

// TestWideRecordLLX drives LLX/SCX on a record with more word and pointer
// fields than a Fields stores inline (maxInlineWidth = 4), exercising the
// spill path, including the old-value lookup for a high field index.
func TestWideRecordLLX(t *testing.T) {
	const nf = 7
	p := core.NewProcess()
	r := core.NewTypedRecord(nf, nf)
	ptrs := make([]unsafe.Pointer, nf)
	for i := 0; i < nf; i++ {
		ptrs[i] = fresh()
		r.SetWord(i, uint64(i*10))
		r.SetPtr(i, ptrs[i])
	}
	snap, st := llx(p, r)
	if st != core.LLXOK {
		t.Fatalf("LLX failed: %v", st)
	}
	if snap.NumWords() != nf || snap.NumPtrs() != nf {
		t.Fatalf("snapshot width = %d+%d, want %d+%d", snap.NumWords(), snap.NumPtrs(), nf, nf)
	}
	for i := 0; i < nf; i++ {
		if snap.Word(i) != uint64(i*10) {
			t.Errorf("snap word %d = %v, want %d", i, snap.Word(i), i*10)
		}
		if snap.Ptr(i) != ptrs[i] {
			t.Errorf("snap ptr %d = %v, want %v", i, snap.Ptr(i), ptrs[i])
		}
	}
	// SCX against the highest field: the old value comes from the spill
	// slice.
	if !p.SCXWord([]*core.Record{r}, nil, r.WordField(nf-1), 1000) {
		t.Fatal("SCX on wide record failed")
	}
	if got := r.Word(nf - 1); got != 1000 {
		t.Errorf("field %d = %v, want 1000", nf-1, got)
	}
	for i := 0; i < nf-1; i++ {
		if got := r.Word(i); got != uint64(i*10) {
			t.Errorf("field %d = %v, want %d (unchanged)", i, got, i*10)
		}
	}
	// LLXFields into a Fields that last held a narrow snapshot still
	// snapshots the wide record correctly (the spill is rebuilt, not
	// truncated).
	var f core.Fields
	if st := p.LLXFields(newWords(1, 2), &f); st != core.LLXOK {
		t.Fatalf("narrow LLX failed: %v", st)
	}
	if st := p.LLXFields(r, &f); st != core.LLXOK {
		t.Fatalf("wide LLX into reused Fields failed: %v", st)
	}
	if f.NumWords() != nf || f.Word(nf-1) != 1000 || f.Ptr(nf-1) != ptrs[nf-1] {
		t.Errorf("reused snapshot = %d words, last %d", f.NumWords(), f.Word(nf-1))
	}
	// And an SCX through that link also works end to end, on the highest
	// pointer field this time.
	again := fresh()
	if !p.SCXPtr([]*core.Record{r}, nil, r.PtrField(nf-1), again) {
		t.Fatal("second SCX on wide record failed")
	}
	if got := r.Ptr(nf - 1); got != again {
		t.Errorf("ptr field %d = %v, want %v", nf-1, got, again)
	}
}

// TestLinkTableSpill establishes more simultaneous links than the inline
// open-addressed table holds and checks that every link — inline or spilled
// to the fallback map — still backs a successful SCX.
func TestLinkTableSpill(t *testing.T) {
	const n = 48 // well past the inline capacity of 16
	p := core.NewProcess()
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = newWords(uint64(i))
		if _, st := llx(p, recs[i]); st != core.LLXOK {
			t.Fatalf("LLX %d failed", i)
		}
	}
	for i, r := range recs {
		if !p.HasLink(r) {
			t.Fatalf("link %d lost after spill", i)
		}
	}
	// Every link, however stored, supports its SCX. Records are untouched in
	// between, so all SCXs must succeed.
	for i, r := range recs {
		if !p.SCXWord([]*core.Record{r}, nil, r.WordField(0), uint64(i+1000)) {
			t.Fatalf("SCX %d failed", i)
		}
		if p.HasLink(r) {
			t.Fatalf("link %d not consumed by SCX", i)
		}
	}
	for i, r := range recs {
		if got := r.Word(0); got != uint64(i+1000) {
			t.Errorf("rec %d = %v, want %d", i, got, i+1000)
		}
	}
}

// TestLinkTableSpillVLX validates spilled links with VLX, both the
// preserving success path and the link-consuming failure path.
func TestLinkTableSpillVLX(t *testing.T) {
	const n = 40
	p := core.NewProcess()
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = newWords(uint64(i))
		if _, st := llx(p, recs[i]); st != core.LLXOK {
			t.Fatalf("LLX %d failed", i)
		}
	}
	if !p.VLX(recs) {
		t.Fatal("VLX over unchanged records failed")
	}
	for i, r := range recs {
		if !p.HasLink(r) {
			t.Fatalf("successful VLX consumed link %d", i)
		}
	}
	// Another process changes one record; the VLX must now fail and consume
	// every link in its V-sequence.
	q := core.NewProcess()
	if _, st := llx(q, recs[n-1]); st != core.LLXOK {
		t.Fatal("LLX by second process failed")
	}
	if !q.SCXWord([]*core.Record{recs[n-1]}, nil, recs[n-1].WordField(0), n) {
		t.Fatal("SCX by second process failed")
	}
	if p.VLX(recs) {
		t.Fatal("VLX succeeded over a changed record")
	}
	for i, r := range recs {
		if p.HasLink(r) {
			t.Errorf("failed VLX preserved link %d", i)
		}
	}
}

// TestLinkTableRelinkAfterSpill re-LLXes records whose links were spilled
// and checks the refreshed links are the ones an SCX consumes.
func TestLinkTableRelinkAfterSpill(t *testing.T) {
	const n = 32
	p := core.NewProcess()
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = newWords(uint64(i))
		if _, st := llx(p, recs[i]); st != core.LLXOK {
			t.Fatalf("LLX %d failed", i)
		}
	}
	// The earliest links are the evicted ones; re-LLX them (moving them back
	// inline) and SCX through the refreshed links.
	for i := 0; i < 8; i++ {
		if _, st := llx(p, recs[i]); st != core.LLXOK {
			t.Fatalf("re-LLX %d failed", i)
		}
		if !p.SCXWord([]*core.Record{recs[i]}, nil, recs[i].WordField(0), uint64(i+1000)) {
			t.Fatalf("SCX %d after re-link failed", i)
		}
		if got := recs[i].Word(0); got != uint64(i+1000) {
			t.Errorf("rec %d = %v, want %d", i, got, i+1000)
		}
	}
}
