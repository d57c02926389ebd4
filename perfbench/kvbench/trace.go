package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Client-side tracing. The traced run wraps the load generator's own calls into
// internal/client (Send, Flush, the first reply of a batch, the rest of its
// replies) in spans; nothing inside the server or the client package is
// instrumented. One batch is one tree: a root "batch" span with the four
// call spans as children. Spans of a batch share its batch id, and each
// names its parent.

// spanKind names a span.
type spanKind uint8

const (
	kindBatch  spanKind = iota // root: first Send to last reply
	kindEncode                 // Send calls: encode into the write buffer
	kindFlush                  // Flush: the write syscall
	kindWait                   // flush end to the first reply: wire + server
	kindDecode                 // the remaining replies of the batch
	numKinds
)

var kindNames = [numKinds]string{"batch", "encode", "flush", "wait", "decode"}

// span is one traced interval; times are nanoseconds since the trace's
// epoch. Parent 0 marks a root.
type span struct {
	ID, Parent, Batch uint64
	Kind              spanKind
	Start, End        int64
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child running past its parent is clipped to the parent.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// batchTimes are the five instants of one traced batch, nanoseconds since
// the trace epoch: first Send, Flush start, Flush end, first reply, last
// reply.
type batchTimes struct {
	send, flush, flushed, first, last int64
	ops                               int
}

// tracer keeps one goroutine's spans. Self times are folded into per-kind
// sums as each batch completes, so the sums cover every batch; the spans
// themselves are kept up to a cap and written out at the end.
type tracer struct {
	epoch   time.Time
	idBase  uint64
	next    uint64
	kept    []span
	self    [numKinds]int64
	batches int64
	ops     int64
}

// maxKeptSpans caps the spans one tracer keeps for the span file.
const maxKeptSpans = 20000

func newTracer(epoch time.Time, stream int) *tracer {
	return &tracer{epoch: epoch, idBase: uint64(stream+1) << 40}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// batch records one batch tree.
func (t *tracer) batch(b batchTimes) {
	t.next++
	bid := t.idBase | t.next
	tree := [numKinds]span{
		{ID: bid, Batch: bid, Kind: kindBatch, Start: b.send, End: b.last},
		{Kind: kindEncode, Start: b.send, End: b.flush},
		{Kind: kindFlush, Start: b.flush, End: b.flushed},
		{Kind: kindWait, Start: b.flushed, End: b.first},
		{Kind: kindDecode, Start: b.first, End: b.last},
	}
	for i := 1; i < len(tree); i++ {
		t.next++
		tree[i].ID, tree[i].Parent, tree[i].Batch = t.idBase|t.next, bid, bid
	}
	self := selfTimes(tree[:])
	for _, s := range tree {
		t.self[s.Kind] += self[s.ID]
	}
	t.batches++
	t.ops += int64(b.ops)
	if len(t.kept)+len(tree) <= maxKeptSpans {
		t.kept = append(t.kept, tree[:]...)
	}
}

// merge folds o's sums and kept spans into t.
func (t *tracer) merge(o *tracer) {
	for k := range t.self {
		t.self[k] += o.self[k]
	}
	t.batches += o.batches
	t.ops += o.ops
	t.kept = append(t.kept, o.kept...)
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"batch":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Batch, kindNames[s.Kind], s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
