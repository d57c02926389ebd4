package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"pragmaprim/internal/harness"
	"pragmaprim/internal/proto"
	"pragmaprim/internal/wal"
	"pragmaprim/internal/workload"
)

// The ladder replays the measured window's first op stream in this process
// through each layer's public functions, one layer at a time: the proto
// codec on in-memory frames, a container session, and (durable workload)
// the WAL on a real directory. Each rung repeats the stream until its time
// budget is spent and reports ns per op. Batches have the size the server
// was measured to see on the traced window (server.ops_per_batch).

// ladderResult is the per-op cost of each rung, in ns.
type ladderResult struct {
	decode, encode   float64 // proto.Reader.ReadRequestBatch / proto.Writer.WriteBool
	get, update      float64 // container Session Get / Insert+Delete
	getFrac, updFrac float64 // shares of the stream
	walAppend        float64 // wal.Log.AppendBatch per record; 0 when not durable
	writeFrac        float64 // share of SET/DEL in the stream
}

// total is the ladder's cost of one op of the mix: codec both ways, the
// container op, and the log append of a write.
func (r ladderResult) total() float64 {
	return r.decode + r.encode + r.getFrac*r.get + r.updFrac*(r.update+r.walAppend)
}

// ladderOps is the length of the replayed stream.
const ladderOps = 1 << 16

// loopReader serves the same bytes forever: a socket that always has the
// next batch ready.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// repeatFor runs pass until budget has elapsed (at least once) and returns
// the mean time per unit, where each pass reports how many units it did.
func repeatFor(budget time.Duration, pass func() int) float64 {
	var units int
	start := time.Now()
	for units == 0 || time.Since(start) < budget {
		units += pass()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

func runLadder(w spec, seed int64, batchOps int, rung time.Duration, walDir string) (ladderResult, error) {
	var res ladderResult
	s := newStream(w.config(), seed, phaseMeasure, 0)
	reqs := make([]proto.Request, ladderOps)
	var gets, upds []proto.Request
	for i := range reqs {
		reqs[i] = s.next()
		if reqs[i].Op == proto.OpGet {
			gets = append(gets, reqs[i])
		} else {
			upds = append(upds, reqs[i])
		}
	}
	res.getFrac = float64(len(gets)) / ladderOps
	res.updFrac = float64(len(upds)) / ladderOps

	// proto: decode the stream's request frames in batches of batchOps.
	var frames bytes.Buffer
	fw := proto.NewWriter(&frames, 0)
	for _, q := range reqs {
		if err := fw.WriteRequest(q); err != nil {
			return res, err
		}
	}
	if err := fw.Flush(); err != nil {
		return res, err
	}
	rd := proto.NewReader(&loopReader{data: frames.Bytes()}, 0)
	batch := make([]proto.Request, 0, batchOps)
	var decodeErr error
	res.decode = repeatFor(rung, func() int {
		n := 0
		for n < ladderOps && decodeErr == nil {
			batch, decodeErr = rd.ReadRequestBatch(batch[:0], batchOps)
			n += len(batch)
		}
		return n
	})
	if decodeErr != nil {
		return res, fmt.Errorf("ladder decode: %w", decodeErr)
	}

	// container: a fresh instance of the served structure, prefilled like
	// the server, driven through one session in server-sized batches. Gets
	// and updates run as separate passes so each is timed without a clock
	// read per op.
	cont, err := harness.BuildContainer(w.structure, w.shards, nil)
	if err != nil {
		return res, err
	}
	sess := cont.NewSession()
	var t tally
	for k := 0; k < keyRange; k += 2 {
		if sess.Insert(k) {
			t.Prefill++
		}
	}
	replies := make([]bool, 0, ladderOps)
	res.get = repeatFor(rung, func() int {
		for lo := 0; lo < len(gets); lo += batchOps {
			sess.BatchStart()
			for _, q := range gets[lo:min(lo+batchOps, len(gets))] {
				if ok := sess.Get(int(q.Key)); len(replies) < ladderOps {
					replies = append(replies, ok)
				}
			}
			sess.BatchEnd()
		}
		return len(gets)
	})
	res.update = repeatFor(rung, func() int {
		for lo := 0; lo < len(upds); lo += batchOps {
			sess.BatchStart()
			for _, q := range upds[lo:min(lo+batchOps, len(upds))] {
				var ok bool
				if q.Op == proto.OpSet {
					if ok = sess.Insert(int(q.Key)); ok {
						t.SetTrue++
					}
				} else if ok = sess.Delete(int(q.Key)); ok {
					t.DelTrue++
				}
				if len(replies) < ladderOps {
					replies = append(replies, ok)
				}
			}
			sess.BatchEnd()
		}
		return len(upds)
	})
	sess.Quiesce()
	sess.Close()
	if err := checkConservation(t, int64(cont.Size()), "ladder container size"); err != nil {
		return res, err
	}

	// proto: encode the replies the container gave, flushing once per
	// batch as the server does.
	ew := proto.NewWriter(io.Discard, 0)
	var encodeErr error
	res.encode = repeatFor(rung, func() int {
		for i, v := range replies {
			if err := ew.WriteBool(v); err != nil {
				encodeErr = err
			}
			if (i+1)%batchOps == 0 {
				if err := ew.Flush(); err != nil {
					encodeErr = err
				}
			}
		}
		return len(replies)
	})
	if encodeErr != nil {
		return res, fmt.Errorf("ladder encode: %w", encodeErr)
	}

	if w.durable {
		// The server appends one AppendBatch per request batch, holding
		// that batch's writes.
		perAppend := int(math.Round(float64(batchOps) * res.updFrac))
		if res.walAppend, err = walRung(upds, max(perAppend, 1), rung, walDir); err != nil {
			return res, err
		}
	}
	return res, nil
}

// walRung appends the stream's writes to a fresh log on a real directory,
// perBatch records per AppendBatch as the server appends one request
// batch's writes, committing every (at most) 64 batches so the buffer
// stays small. Only the appends are timed.
func walRung(upds []proto.Request, perBatch int, rung time.Duration, dir string) (float64, error) {
	log, err := wal.Open(dir, wal.Options{}, nil)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	recs := make([]wal.Record, len(upds))
	for i, q := range upds {
		recs[i] = wal.Record{Op: wal.OpInsert, Key: q.Key}
		if q.Op == proto.OpDel {
			recs[i].Op = wal.OpDelete
		}
	}
	perBatch = min(perBatch, len(recs))
	perCommit := min(64, len(recs)/max(perBatch, 1))
	if perCommit == 0 {
		log.Close()
		return 0, fmt.Errorf("ladder wal: no writes in the stream")
	}
	var appended int64
	var spent time.Duration
	start := time.Now()
	for appended == 0 || time.Since(start) < rung {
		for lo := 0; lo+perBatch*perCommit <= len(recs); lo += perBatch * perCommit {
			t0 := time.Now()
			var lsn uint64
			for b := lo; b < lo+perBatch*perCommit; b += perBatch {
				if lsn, err = log.AppendBatch(recs[b : b+perBatch]); err != nil {
					log.Close()
					return 0, err
				}
			}
			spent += time.Since(t0)
			appended += int64(perBatch * perCommit)
			if err := log.Commit(lsn); err != nil {
				log.Close()
				return 0, err
			}
			if time.Since(start) >= rung {
				break
			}
		}
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	return float64(spent.Nanoseconds()) / float64(appended), nil
}

// keyRange is the key space every workload draws from.
const keyRange = 1024

func (w spec) config() workload.Config {
	return workload.Config{KeyRange: keyRange, Dist: workload.Uniform, Mix: w.mix}
}
