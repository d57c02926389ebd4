package main

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"pragmaprim/internal/client"
	"pragmaprim/internal/proto"
	"pragmaprim/internal/stats"
	"pragmaprim/internal/workload"
)

// Phases of a run. Each (phase, connection) pair draws its own key and op
// streams, all derived from the workload seed, so a seed fixes every input.
const (
	phaseWarmup   = 1
	phaseMeasure  = 2 // the untraced window; the ladder replays its stream 0
	phaseTraced   = 3
	streamsPerRun = 1 << 8
)

// streamSeed derives the seed of one generator with splitmix64.
func streamSeed(seed int64, phase, stream, which int) int64 {
	z := uint64(seed) + uint64(phase*streamsPerRun+stream)*0x9E3779B97F4A7C15*2 + uint64(which)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// opStream is one connection's seeded request stream.
type opStream struct {
	keys workload.KeyGen
	ops  *workload.OpGen
}

func newStream(cfg workload.Config, seed int64, phase, stream int) *opStream {
	return &opStream{
		keys: cfg.NewKeyGen(streamSeed(seed, phase, stream, 0)),
		ops:  cfg.NewOpGen(streamSeed(seed, phase, stream, 1)),
	}
}

func (s *opStream) next() proto.Request {
	op := proto.OpDel
	switch s.ops.Next() {
	case workload.OpGet:
		op = proto.OpGet
	case workload.OpInsert:
		op = proto.OpSet
	}
	return proto.Request{Op: op, Key: int64(s.keys.Next())}
}

// connStats is one connection's account of a window. In the open loop the
// sender owns attempted and late, the receiver the rest.
type connStats struct {
	attempted int64
	late      stats.Histogram // open loop: send start − due time, ns

	acked, errored int64
	tally          tally
	lat            stats.Histogram // per-op latency, ns

	// slices holds the same latencies split into sliceLen slices of the
	// window that starts at start; unset start keeps no slices.
	start  time.Time
	slices []stats.Histogram
}

// sliceLen is the length of one slice of a measured window.
const sliceLen = 250 * time.Millisecond

// recordLat books one op's latency, observed at now.
func (st *connStats) recordLat(now time.Time, d time.Duration) {
	st.lat.Record(int64(d))
	if st.start.IsZero() {
		return
	}
	i := int(now.Sub(st.start) / sliceLen)
	for len(st.slices) <= i {
		st.slices = append(st.slices, stats.Histogram{})
	}
	st.slices[i].Record(int64(d))
}

// account books one reply.
func (st *connStats) account(op proto.Op, rep proto.Reply) {
	if rep.Status == proto.StatusErr {
		st.errored++
		return
	}
	st.acked++
	if rep.Status != proto.StatusTrue {
		return
	}
	switch op {
	case proto.OpSet:
		st.tally.SetTrue++
	case proto.OpDel:
		st.tally.DelTrue++
	}
}

// failed counts the ops that errored or got no reply.
func (st *connStats) failed() int64 { return st.attempted - st.acked }

func (st *connStats) merge(o *connStats) {
	st.attempted += o.attempted
	st.late.Merge(&o.late)
	st.acked += o.acked
	st.errored += o.errored
	st.tally.add(o.tally)
	st.lat.Merge(&o.lat)
	for i := range o.slices {
		if i == len(st.slices) {
			st.slices = append(st.slices, stats.Histogram{})
		}
		st.slices[i].Merge(&o.slices[i])
	}
}

// dial opens one load connection. The read timeout turns a wedged server
// into an error instead of a hang.
func dial(addr string) (*client.Client, error) {
	return client.DialOptions(addr, client.Options{DialTimeout: 5 * time.Second, ReadTimeout: 20 * time.Second})
}

// prefill inserts every even key below keys in pipelined batches and
// returns how many inserts the server acknowledged as applied.
func prefill(cl *client.Client, keys int) (int64, error) {
	const batch = 512
	var applied int64
	for lo := 0; lo < keys; lo += 2 * batch {
		n := 0
		for k := lo; k < keys && k < lo+2*batch; k += 2 {
			if err := cl.Send(proto.Request{Op: proto.OpSet, Key: int64(k)}); err != nil {
				return applied, err
			}
			n++
		}
		if err := cl.Flush(); err != nil {
			return applied, err
		}
		for ; n > 0; n-- {
			rep, err := cl.Recv()
			if err != nil {
				return applied, err
			}
			if rep.Status == proto.StatusTrue {
				applied++
			}
		}
	}
	return applied, nil
}

// closedLoop keeps depth requests in flight on cl: send a batch, flush,
// collect its replies, repeat, until the deadline passes or maxOps ops were
// sent (0: no op limit). Each op is timed from the batch's first Send to
// its reply, so encode and write time count. tr, when non-nil, records the
// batch's spans.
func closedLoop(cl *client.Client, s *opStream, depth int, until time.Time, maxOps int64,
	st *connStats, tr *tracer) error {
	kinds := make([]proto.Op, depth)
	for time.Now().Before(until) && (maxOps == 0 || st.attempted < maxOps) {
		var bt batchTimes
		t0 := time.Now()
		if tr != nil {
			bt.send = tr.now()
		}
		for i := range kinds {
			req := s.next()
			kinds[i] = req.Op
			if err := cl.Send(req); err != nil {
				return err
			}
		}
		st.attempted += int64(depth)
		if tr != nil {
			bt.flush = tr.now()
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		if tr != nil {
			bt.flushed = tr.now()
		}
		for i, op := range kinds {
			rep, err := cl.Recv()
			if err != nil {
				return err
			}
			now := time.Now()
			st.recordLat(now, now.Sub(t0))
			st.account(op, rep)
			if i == 0 && tr != nil {
				bt.first = tr.now()
			}
		}
		if tr != nil {
			bt.last, bt.ops = tr.now(), depth
			tr.batch(bt)
		}
	}
	return nil
}

// inflight is one open-loop op handed from the sender to the receiver.
type inflight struct {
	due   time.Time
	op    proto.Op
	idx   int // position in its send batch
	batch batchTimes
}

// openLoop issues requests on cl at ratePerConn ops/s from now until the
// deadline, whether or not replies have come back, burst requests at each
// due time. Once window requests
// are outstanding the sender stops (after the batch it just flushed) until
// replies free the window. A sender goroutine sends every op that is due and
// flushes once; a receiver goroutine reads replies as they arrive, so a
// reply is timed when it lands, not when the sender next looks. Each op is
// timed from its due time, which charges a stall to every op it delays.
// The receiver reads with its own proto.Reader on the connection; the
// client's Send/Flush side is used by the sender alone.
func openLoop(cl *client.Client, s *opStream, ratePerConn float64, burst, window int, until time.Time,
	st *connStats, tr *tracer) error {
	interval := time.Duration(float64(burst) * float64(time.Second) / ratePerConn)
	// The receiver holds one op while it waits for its reply, so a buffer of
	// window-1 caps outstanding requests at window.
	ch := make(chan inflight, window-1)
	var recvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recvErr = receive(cl, ch, st, tr)
	}()
	sendErr := func() error {
		defer close(ch)
		var due []time.Time
		var ops []proto.Op
		next := time.Now()
		for next.Before(until) {
			if d := time.Until(next); d > 0 {
				sleepPrecise(d)
			}
			start := time.Now()
			var bt batchTimes
			if tr != nil {
				bt.send = tr.now()
			}
			// Every op due by now goes out in this batch.
			due = due[:0]
			for !next.After(start) && next.Before(until) {
				for range burst {
					due = append(due, next)
				}
				next = next.Add(interval)
			}
			ops = ops[:0]
			for i := range due {
				req := s.next()
				ops = append(ops, req.Op)
				if err := cl.Send(req); err != nil {
					return err
				}
				st.late.Record(int64(start.Sub(due[i])))
			}
			if tr != nil {
				bt.flush = tr.now()
			}
			if err := cl.Flush(); err != nil {
				return err
			}
			if tr != nil {
				bt.flushed, bt.ops = tr.now(), len(due)
			}
			for i := range due {
				// Blocks while the window is full.
				ch <- inflight{due: due[i], op: ops[i], idx: i, batch: bt}
				st.attempted++
			}
		}
		return nil
	}()
	wg.Wait()
	return errors.Join(sendErr, recvErr)
}

// receive reads one reply per op the sender hands over, in send order.
func receive(cl *client.Client, ch <-chan inflight, st *connStats, tr *tracer) error {
	conn := cl.Conn()
	rd := proto.NewReader(conn, 0)
	var err error
	var first int64 // trace time of the current batch's first reply
	for p := range ch {
		if err != nil {
			continue // drain so the sender never blocks; the op is lost
		}
		if rd.Buffered() == 0 {
			conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		}
		var rep proto.Reply
		if rep, err = rd.ReadReply(); err != nil {
			err = fmt.Errorf("receive: %w", err)
			continue
		}
		at := time.Now()
		st.recordLat(at, at.Sub(p.due))
		st.account(p.op, rep)
		if tr == nil {
			continue
		}
		now := tr.now()
		if p.idx == 0 {
			first = now
		}
		if p.idx == p.batch.ops-1 {
			b := p.batch
			b.first, b.last = first, now
			tr.batch(b)
		}
	}
	return err
}

// sleepPrecise blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's timer, which an idle runtime serves from
// epoll_wait with millisecond resolution: a 250µs pacing interval would
// turn into bursts every millisecond and charge the wait to every op.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
