package core_test

import (
	"sync"
	"testing"

	"pragmaprim/internal/core"
)

func TestSnapshotAllEmpty(t *testing.T) {
	p := core.NewProcess()
	if !p.SnapshotAll(nil, nil) {
		t.Fatal("SnapshotAll(nil) failed")
	}
}

func TestSnapshotAllQuiescent(t *testing.T) {
	p := core.NewProcess()
	a := newWords(1)
	x := fresh()
	b := newPair(t, 2, x)
	snaps := make([]core.Fields, 2)
	if !p.SnapshotAll([]*core.Record{a, b}, snaps) {
		t.Fatal("SnapshotAll failed with no contention")
	}
	if snaps[0].Word(0) != 1 || snaps[1].Word(0) != 2 || snaps[1].Ptr(0) != x {
		t.Fatalf("snapshots = [%d] [%d %v]", snaps[0].Word(0), snaps[1].Word(0), snaps[1].Ptr(0))
	}
	// Links survive a successful SnapshotAll: an SCX can consume them.
	if !p.SCXWord([]*core.Record{a, b}, nil, a.WordField(0), 10) {
		t.Fatal("SCX after SnapshotAll failed")
	}
}

func TestSnapshotAllFailsAcrossChange(t *testing.T) {
	p := core.NewProcess()
	q := core.NewProcess()
	a := newWords(1)
	b := newWords(2)

	// Interleave manually: p links a, q modifies a, then p's SnapshotAll of
	// {a,b} must observe the conflict when it revalidates.
	mustLLX(t, p, a)
	mustLLX(t, q, a)
	if !q.SCXWord([]*core.Record{a}, nil, a.WordField(0), 9) {
		t.Fatal("q SCX failed")
	}
	// p's stale link is irrelevant: SnapshotAll performs fresh LLXs, so it
	// should succeed and see the new value.
	snaps := make([]core.Fields, 2)
	if !p.SnapshotAll([]*core.Record{a, b}, snaps) {
		t.Fatal("SnapshotAll failed after quiesced change")
	}
	if snaps[0].Word(0) != 9 {
		t.Fatalf("snapshot saw %v, want 9", snaps[0].Word(0))
	}
}

func TestSnapshotAllShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SnapshotAll with too few snapshots did not panic")
		}
	}()
	core.NewProcess().SnapshotAll([]*core.Record{newWords(1)}, nil)
}

func TestSnapshotAllFinalizedRecordFails(t *testing.T) {
	p := core.NewProcess()
	a := newWords(1)
	b := newWords(2)
	mustLLX(t, p, a)
	mustLLX(t, p, b)
	if !p.SCXWord([]*core.Record{a, b}, []*core.Record{b}, a.WordField(0), 5) {
		t.Fatal("finalizing SCX failed")
	}
	if p.SnapshotAll([]*core.Record{a, b}, make([]core.Fields, 2)) {
		t.Fatal("SnapshotAll succeeded over a finalized record")
	}
}

// TestSnapshotAllConsistentUnderWrites is the cross-record analogue of the
// single-record snapshot test: a writer keeps two records moving in
// lockstep (a bumped first, then b), so any successful SnapshotAll must see
// a == b or a == b+1 — never b ahead of a, and never a two ahead.
func TestSnapshotAllConsistentUnderWrites(t *testing.T) {
	const rounds = 4000
	a := newWords(0)
	b := newWords(0)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := core.NewProcess()
		for k := uint64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range []*core.Record{a, b} {
				for {
					if _, st := llx(p, r); st != core.LLXOK {
						continue
					}
					if p.SCXWord([]*core.Record{r}, nil, r.WordField(0), k) {
						break
					}
				}
			}
		}
	}()

	p := core.NewProcess()
	validated := 0
	snaps := make([]core.Fields, 2)
	for i := 0; i < rounds; i++ {
		if !p.SnapshotAll([]*core.Record{a, b}, snaps) {
			continue
		}
		va, vb := snaps[0].Word(0), snaps[1].Word(0)
		if va != vb && va != vb+1 {
			t.Fatalf("inconsistent cross-record snapshot a=%d b=%d", va, vb)
		}
		validated++
	}
	close(stop)
	wg.Wait()
	if validated == 0 {
		t.Skip("no snapshot validated under contention; inconclusive run")
	}
}
