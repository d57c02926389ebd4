package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Overlapping children count once; one runs past the parent and is
		// clipped.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerBatch(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.batch(batchTimes{send: 0, flush: 100, flushed: 150, first: 1150, last: 1400, ops: 4})
	tr.batch(batchTimes{send: 2000, flush: 2100, flushed: 2200, first: 3200, last: 3300, ops: 4})
	if tr.batches != 2 || tr.ops != 8 {
		t.Fatalf("batches %d ops %d", tr.batches, tr.ops)
	}
	for k, w := range map[spanKind]int64{kindEncode: 200, kindFlush: 150, kindWait: 2000, kindDecode: 350, kindBatch: 0} {
		if tr.self[k] != w {
			t.Errorf("%s self = %d, want %d", kindNames[k], tr.self[k], w)
		}
	}
	if len(tr.kept) != 10 {
		t.Fatalf("kept %d spans, want 10", len(tr.kept))
	}
	root := tr.kept[0]
	for _, s := range tr.kept[1:5] {
		if s.Parent != root.ID || s.Batch != root.ID {
			t.Errorf("span %d: parent %d batch %d, want both %d", s.ID, s.Parent, s.Batch, root.ID)
		}
	}
}
