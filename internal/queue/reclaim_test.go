package queue_test

import (
	"runtime"
	"sync"
	"testing"

	"pragmaprim/internal/core"
	"pragmaprim/internal/queue"
)

// TestQueueRecycleHammer churns enqueue/dequeue from several goroutines
// with concurrent Peek/Len readers — under -race this is the adversarial
// check on the tail-hint discipline: a dummy retired while the hint (or a
// guarded reader) could still reach it shows up as a race between the
// recycler's node reinitialization and the reader's loads, and a dangling
// hint corrupts FIFO order, which the per-producer sequence check catches.
func TestQueueRecycleHammer(t *testing.T) {
	q := queue.New[[2]int]()
	const (
		producers = 3
		consumers = 3
		perP      = 4000
	)
	var wg sync.WaitGroup
	got := make([][]int, producers)
	var mu sync.Mutex

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := core.AcquireHandle()
			defer h.Release()
			s := q.Attach(h)
			for i := 0; i < perP; i++ {
				s.Enqueue([2]int{p, i})
			}
		}(p)
	}
	var consumed sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			h := core.AcquireHandle()
			defer h.Release()
			s := q.Attach(h)
			for {
				v, ok := s.Dequeue()
				if ok {
					mu.Lock()
					got[v[0]] = append(got[v[0]], v[1])
					mu.Unlock()
					continue
				}
				select {
				case <-stop:
					// Producers are done and the queue was (atomically)
					// observed empty: nothing left to consume.
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	// Readers exercise the guarded Peek/Len paths while nodes churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			q.Peek()
			if i%100 == 0 {
				q.Len()
			}
		}
	}()
	wg.Wait()
	close(stop)
	consumed.Wait()

	// With several consumers the dequeue-to-record step is not atomic, so
	// recorded order proves nothing; what must hold is exact-once delivery:
	// every produced item consumed exactly once, none lost, none duplicated
	// (a recycled node handed out twice would duplicate or lose values).
	total := 0
	for p := 0; p < producers; p++ {
		total += len(got[p])
		seen := make([]bool, perP)
		for _, i := range got[p] {
			if i < 0 || i >= perP || seen[i] {
				t.Fatalf("producer %d item %d duplicated or out of range", p, i)
			}
			seen[i] = true
		}
	}
	if total != producers*perP {
		t.Fatalf("consumed %d items, want %d", total, producers*perP)
	}
}

// TestQueueFIFOPerProducerUnderRecycling drains with a single consumer —
// there per-producer FIFO order IS guaranteed, and a dangling tail hint
// (an enqueue walking off a recycled node) would break it.
func TestQueueFIFOPerProducerUnderRecycling(t *testing.T) {
	q := queue.New[[2]int]()
	const producers = 3
	const perP = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := core.AcquireHandle()
			defer h.Release()
			s := q.Attach(h)
			for i := 0; i < perP; i++ {
				s.Enqueue([2]int{p, i})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	h := core.AcquireHandle()
	defer h.Release()
	s := q.Attach(h)
	next := make([]int, producers)
	consumed := 0
	for consumed < producers*perP {
		doneNow := false
		select {
		case <-done:
			doneNow = true
		default:
		}
		v, ok := s.Dequeue()
		if !ok {
			if doneNow {
				// All enqueues happened before the done observation, which
				// happened before this (atomically validated) emptiness.
				t.Fatalf("queue empty with only %d of %d items consumed",
					consumed, producers*perP)
			}
			runtime.Gosched()
			continue
		}
		if v[1] != next[v[0]] {
			t.Fatalf("producer %d: got item %d, want %d (FIFO broken; dangling tail hint?)",
				v[0], v[1], next[v[0]])
		}
		next[v[0]]++
		consumed++
	}
}

// TestQueueReuseAfterWarmup pins that dequeue actually feeds enqueue: a
// balanced enqueue/dequeue loop recycles its nodes through the freelist.
func TestQueueReuseAfterWarmup(t *testing.T) {
	q := queue.New[int]()
	h := core.NewHandle()
	// Unpublish the handle's announcement once the stats are read: a leaked
	// announcement pins the global epoch for every later test (and every
	// later -count repetition of this one).
	defer h.Release()
	s := q.Attach(h)
	for i := 0; i < 500; i++ {
		s.Enqueue(i)
		if v, ok := s.Dequeue(); !ok || v != i {
			t.Fatalf("dequeue %d = %v,%v", i, v, ok)
		}
	}
	if st := h.Process().Reclaimer().Stats(); st.Reused == 0 {
		t.Fatalf("no node reuse after 500 balanced enqueue/dequeue pairs (stats %+v)", st)
	}
}
