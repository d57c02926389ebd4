package core

import (
	"math/rand"
	"testing"
)

// White-box tests for the open-addressed link table: linear probing,
// backward-shift deletion, and oldest-first eviction to the spill map.

func newTestRecords(n int) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = NewTypedRecord(1, 0)
		recs[i].SetWord(0, uint64(i))
	}
	return recs
}

func TestLinkTablePutGetDel(t *testing.T) {
	var tab linkTable
	recs := newTestRecords(linkTableMax)
	for i, r := range recs {
		e := tab.put(r)
		e.info = dummySCXRecord
		e.f.nw = 1
		e.f.words[0] = uint64(i)
	}
	if tab.links() != linkTableMax {
		t.Fatalf("links = %d, want %d", tab.links(), linkTableMax)
	}
	if tab.spill != nil {
		t.Fatalf("spill map allocated below capacity")
	}
	for i, r := range recs {
		e := tab.get(r)
		if e == nil {
			t.Fatalf("get(%d) = nil", i)
		}
		if e.f.words[0] != uint64(i) {
			t.Errorf("get(%d) word = %v, want %d", i, e.f.words[0], i)
		}
	}
	// Delete in a scrambled order, checking the survivors after each step:
	// backward-shift deletion must never strand a probe chain.
	order := rand.New(rand.NewSource(42)).Perm(len(recs))
	deleted := make(map[int]bool)
	for _, i := range order {
		tab.del(recs[i])
		deleted[i] = true
		for j, r := range recs {
			e := tab.get(r)
			if deleted[j] && e != nil {
				t.Fatalf("deleted record %d still present", j)
			}
			if !deleted[j] && e == nil {
				t.Fatalf("record %d lost after deleting %d", j, i)
			}
		}
	}
	if tab.links() != 0 {
		t.Errorf("links = %d after deleting all, want 0", tab.links())
	}
}

func TestLinkTableOverwrite(t *testing.T) {
	var tab linkTable
	r := NewTypedRecord(1, 0)
	e := tab.put(r)
	e.f.nw = 1
	e.f.words[0] = 1
	e = tab.put(r)
	if e.f.words[0] != 1 {
		// put on an existing key returns the same slot; the caller
		// overwrites it, so the old contents are still visible here.
		t.Fatalf("put did not return the existing slot")
	}
	e.f.words[0] = 2
	if got := tab.get(r); got.f.words[0] != 2 {
		t.Errorf("entry = %v, want 2", got.f.words[0])
	}
	if tab.links() != 1 {
		t.Errorf("links = %d, want 1", tab.links())
	}
}

func TestLinkTableEvictionOrder(t *testing.T) {
	var tab linkTable
	recs := newTestRecords(linkTableMax + 3)
	for _, r := range recs {
		e := tab.put(r)
		e.info = dummySCXRecord
	}
	// The three oldest links must have been evicted to the spill map, the
	// rest kept inline.
	if len(tab.spill) != 3 {
		t.Fatalf("spill size = %d, want 3", len(tab.spill))
	}
	for i := 0; i < 3; i++ {
		if _, ok := tab.spill[recs[i]]; !ok {
			t.Errorf("oldest link %d not in spill map", i)
		}
	}
	// Every link is still reachable.
	for i, r := range recs {
		if tab.get(r) == nil {
			t.Errorf("link %d unreachable after eviction", i)
		}
	}
	if tab.links() != len(recs) {
		t.Errorf("links = %d, want %d", tab.links(), len(recs))
	}
	// Re-putting a spilled record moves it back inline.
	tab.put(recs[0])
	if _, ok := tab.spill[recs[0]]; ok {
		t.Errorf("re-put record still in spill map")
	}
	if tab.get(recs[0]) == nil {
		t.Errorf("re-put record unreachable")
	}
}

func TestLinkTableChurn(t *testing.T) {
	// Randomized churn against a map oracle.
	var tab linkTable
	oracle := make(map[*Record]*SCXRecord)
	recs := newTestRecords(64)
	rng := rand.New(rand.NewSource(7))
	infos := []*SCXRecord{dummySCXRecord, newDummySCXRecord(), newDummySCXRecord()}
	for step := 0; step < 10000; step++ {
		r := recs[rng.Intn(len(recs))]
		switch rng.Intn(3) {
		case 0, 1:
			info := infos[rng.Intn(len(infos))]
			tab.put(r).info = info
			oracle[r] = info
		case 2:
			tab.del(r)
			delete(oracle, r)
		}
		if tab.links() != len(oracle) {
			t.Fatalf("step %d: links = %d, oracle = %d", step, tab.links(), len(oracle))
		}
	}
	for i, r := range recs {
		e := tab.get(r)
		want, ok := oracle[r]
		if ok != (e != nil) {
			t.Fatalf("record %d: present=%v, oracle=%v", i, e != nil, ok)
		}
		if ok && e.info != want {
			t.Fatalf("record %d: wrong info", i)
		}
	}
}
