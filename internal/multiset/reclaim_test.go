package multiset_test

import (
	"sync"
	"testing"
	"time"

	"pragmaprim/internal/core"
	"pragmaprim/internal/multiset"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/template"
)

// TestRecycleHammer churns insert/delete on a small key range from several
// writer goroutines while readers traverse concurrently — the adversarial
// workload for node recycling, run under -race in CI: a node recycled while
// a guarded reader could still reach it shows up as a data race between the
// recycler's reinitialization writes and the reader's field loads.
func TestRecycleHammer(t *testing.T) {
	m := multiset.New[int]()
	const (
		writers = 4
		readers = 3
		keys    = 32
		ops     = 3000
	)
	for k := 0; k < keys; k += 2 {
		m.Insert(k, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := core.AcquireHandle()
			defer h.Release()
			s := m.Attach(h)
			for i := 0; i < ops; i++ {
				k := (w*7 + i) % keys
				s.Insert(k, 1)
				s.Delete(k, 1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := core.AcquireHandle()
			defer h.Release()
			s := m.Attach(h)
			for i := 0; i < ops; i++ {
				s.Get((r + i) % keys)
				if i%64 == 0 {
					m.Items() // full guarded traversal
				}
			}
		}(r)
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after recycle hammer: %v", err)
	}
	for k := 0; k < keys; k += 2 {
		if m.Get(k) < 1 {
			t.Errorf("key %d lost its baseline occurrence", k)
		}
	}
}

// TestFreelistReuseAfterWarmup asserts the point of the whole mechanism:
// after a warmup of balanced insert/delete pairs, retired nodes actually
// come back out of the freelists (reuse counter strictly positive), rather
// than every operation hitting the heap.
func TestFreelistReuseAfterWarmup(t *testing.T) {
	if !reclaim.Default.AwaitMobile(10 * time.Second) {
		t.Fatal("reclamation epoch is pinned by a stale announcement from an earlier test")
	}
	m := multiset.New[int]()
	h := core.NewHandle()
	defer h.Release()
	s := m.Attach(h)
	for k := 0; k < 64; k++ {
		s.Insert(k, 1)
	}
	for i := 0; i < 500; i++ {
		k := 1000 + i%8
		s.Insert(k, 1)
		s.Delete(k, 1)
	}
	st := s.ReclaimStats()
	if st.Retired == 0 {
		t.Fatal("deletes retired nothing")
	}
	if st.Recycled == 0 {
		t.Fatalf("no retired node survived a grace period into a freelist (stats %+v)", st)
	}
	if st.Reused == 0 {
		t.Fatalf("no freelist reuse after 500 balanced insert/delete pairs (stats %+v)", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestEpochStallBoundsLimbo parks one handle inside an epoch guard — the
// worst case for epoch reclamation, a reader that never finishes — and
// verifies that (a) a concurrent session keeps operating correctly, (b) its
// limbo stays bounded (overflow drops to the GC instead of growing or
// crashing), and (c) reclamation resumes once the parked handle quiesces.
// Under the amortized scheme Exit alone is not enough: the announcement
// stays published between operations, so a handle that merely finished its
// operation still pins the epoch until it quiesces (or is collected).
func TestEpochStallBoundsLimbo(t *testing.T) {
	// Announcements persist across operations now, so a handle leaked by an
	// earlier test in this binary would pin the epoch and mask the resume
	// this test asserts. Wait for the GC scavenger to clear any leftovers.
	if !reclaim.Default.AwaitMobile(10 * time.Second) {
		t.Fatal("reclamation epoch is pinned by a stale announcement from an earlier test")
	}
	m := multiset.New[int]()
	parked := core.NewHandle()
	template.Enter(parked) // park: announce an epoch and never exit

	h := core.NewHandle()
	s := m.Attach(h)
	const ops = 15000 // comfortably more than the limbo cap
	for i := 0; i < ops; i++ {
		k := 100 + i%16
		s.Insert(k, 1)
		s.Delete(k, 1)
	}
	st := s.ReclaimStats()
	if st.Recycled != 0 {
		t.Errorf("recycled %d nodes while an epoch was parked", st.Recycled)
	}
	// The cap is 16384 entries (reclaim.limboCap, sized to ride out a
	// descheduled peer's timeslice); churn produces well over twice that,
	// so an unbounded limbo would blow straight past the threshold.
	if limbo := h.Process().Reclaimer().LimboLen(); limbo > 17000 {
		t.Errorf("limbo grew to %d entries under a parked epoch; want bounded by the caps", limbo)
	}
	if st.Dropped == 0 {
		t.Error("a parked epoch must force limbo overflow to drop to the GC")
	}
	if err := m.CheckInvariants(); err != nil {
		// Not Fatalf: the handles below must still be released, or their
		// announcements pin the epoch for every later test in the binary.
		t.Errorf("invariants under stall: %v", err)
	}

	// Exiting the operation does NOT unpin the epoch: the announcement is
	// deliberately left published (that deferral is the whole point of the
	// amortized scheme), so it is now merely stale — and still blocking.
	template.Exit(parked)
	for i := 0; i < 500; i++ {
		k := 100 + i%16
		s.Insert(k, 1)
		s.Delete(k, 1)
	}
	if got := s.ReclaimStats().Recycled; got != 0 {
		t.Errorf("recycled %d nodes under a stale (exited but unquiesced) announcement", got)
	}

	// Quiesce unpublishes the stale announcement; reclamation resumes.
	template.Quiesce(parked)
	for i := 0; i < 500; i++ {
		k := 100 + i%16
		s.Insert(k, 1)
		s.Delete(k, 1)
	}
	if got := s.ReclaimStats().Recycled; got == 0 {
		t.Error("reclamation did not resume after the parked handle quiesced")
	}

	// Unpublish this test's own announcements so later tests in the binary
	// see a mobile epoch.
	h.Release()
	parked.Release()
}
