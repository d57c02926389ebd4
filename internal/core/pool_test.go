package core

import (
	"sync"
	"testing"
)

func TestHandleReusedAfterRelease(t *testing.T) {
	var pool ProcessPool
	h := pool.Acquire()
	h.SetScratch("engine-state")
	p := h.Process()
	h.Release()
	if got := pool.pooled(); got != 1 {
		t.Fatalf("pooled = %d, want 1", got)
	}
	h2 := pool.Acquire()
	if h2 != h {
		t.Fatal("Acquire did not reuse the released Handle")
	}
	if h2.Process() != p {
		t.Fatal("reacquired Handle has a different Process")
	}
	if h2.Scratch() != "engine-state" {
		t.Fatal("scratch state did not survive the Release/Acquire cycle")
	}
	if got := pool.pooled(); got != 0 {
		t.Fatalf("pooled after reacquire = %d, want 0", got)
	}
}

func TestPoolMintsWhenEmpty(t *testing.T) {
	var pool ProcessPool
	a := pool.Acquire()
	b := pool.Acquire()
	if a == b {
		t.Fatal("two live acquisitions returned the same Handle")
	}
	a.Release()
	b.Release()
	if got := pool.pooled(); got != 2 {
		t.Fatalf("pooled = %d, want 2", got)
	}
}

func TestPoolOverflowDropsHandles(t *testing.T) {
	var pool ProcessPool
	handles := make([]*Handle, poolSlots+5)
	for i := range handles {
		handles[i] = pool.Acquire()
	}
	for _, h := range handles {
		h.Release()
	}
	if got := pool.pooled(); got != poolSlots {
		t.Fatalf("pooled = %d, want the %d-slot capacity", got, poolSlots)
	}
}

func TestPoolLessHandleReleaseIsNoop(t *testing.T) {
	h := NewHandle()
	h.Release() // must not panic or register anywhere
	if h.Process() == nil {
		t.Fatal("pool-less Handle has no Process")
	}
}

// TestPoolConcurrentAcquireRelease hammers one pool from many goroutines
// under -race: no Handle may ever be owned twice. Each worker stamps the
// Handle's scratch slot with its identity and checks it back before
// releasing — a double-acquire would let another worker overwrite it.
func TestPoolConcurrentAcquireRelease(t *testing.T) {
	var pool ProcessPool
	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h := pool.Acquire()
				token := w*iters + i
				h.SetScratch(token)
				if got := h.Scratch(); got != token {
					t.Errorf("handle shared between owners: scratch = %v, want %v", got, token)
					return
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestPoolExclusiveOwnership leaves the pool nearly empty and makes workers
// contend for the same few handles, counting concurrent owners per Handle
// through the Process's link table identity. Value-CAS on the slots must
// never hand one Handle to two goroutines at once.
func TestPoolExclusiveOwnership(t *testing.T) {
	var pool ProcessPool
	seed := pool.Acquire()
	seed.Release() // exactly one pooled Handle to fight over

	const workers = 8
	const iters = 3000
	owners := make(map[*Handle]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h := pool.Acquire()
				mu.Lock()
				owners[h]++
				if owners[h] > 1 {
					mu.Unlock()
					t.Error("Handle acquired by two goroutines at once")
					return
				}
				mu.Unlock()

				mu.Lock()
				owners[h]--
				mu.Unlock()
				h.Release()
			}
		}()
	}
	wg.Wait()
}

func TestAcquireHandleDefaultPool(t *testing.T) {
	h := AcquireHandle()
	if h == nil || h.Process() == nil {
		t.Fatal("AcquireHandle returned an unusable Handle")
	}
	// The default pool must take it back for reuse.
	h.Release()
	h2 := AcquireHandle()
	defer h2.Release()
	if h2 == nil {
		t.Fatal("second AcquireHandle failed")
	}
}

// TestHandleProcessUsableForPrimitives threads a pooled Handle's Process
// through a raw LLX/SCX cycle — the escape hatch examples use.
func TestHandleProcessUsableForPrimitives(t *testing.T) {
	h := AcquireHandle()
	defer h.Release()
	p := h.Process()
	r := NewTypedRecord(1, 0)
	r.SetWord(0, 41)
	var snap Fields
	if st := p.LLXFields(r, &snap); st != LLXOK {
		t.Fatalf("LLX status %v", st)
	}
	if !p.SCXWord([]*Record{r}, nil, r.WordField(0), snap.Word(0)+1) {
		t.Fatal("SCX failed")
	}
	if got := r.Word(0); got != 42 {
		t.Fatalf("value = %d, want 42", got)
	}
}
