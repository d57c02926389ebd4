package server_test

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pragmaprim/internal/client"
	"pragmaprim/internal/container"
	"pragmaprim/internal/multiset"
	"pragmaprim/internal/proto"
	"pragmaprim/internal/server"
	"pragmaprim/internal/shard"
)

// startMultiset spins up a server over a fresh unsharded multiset.
func startMultiset(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.Start(container.Multiset(multiset.New[int]()), cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestServerBasicOps(t *testing.T) {
	s := startMultiset(t, server.Config{})
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if got, err := cl.Get(7); err != nil || got {
		t.Fatalf("get before set: %v, %v", got, err)
	}
	if applied, err := cl.Set(7); err != nil || !applied {
		t.Fatalf("set: %v, %v", applied, err)
	}
	if got, err := cl.Get(7); err != nil || !got {
		t.Fatalf("get after set: %v, %v", got, err)
	}
	if n, err := cl.Size(); err != nil || n != 1 {
		t.Fatalf("size: %d, %v", n, err)
	}
	if applied, err := cl.Del(7); err != nil || !applied {
		t.Fatalf("del: %v, %v", applied, err)
	}
	if applied, err := cl.Del(7); err != nil || applied {
		t.Fatalf("del absent: %v, %v", applied, err)
	}
	if n, err := cl.Size(); err != nil || n != 0 {
		t.Fatalf("size after del: %d, %v", n, err)
	}
	txt, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, want := range []string{"kv_server_conns_active ", "kv_server_batches_total ", "kv_server_batch_ops count=", "kv_container_size ", "kv_engine_ops_total "} {
		if !strings.Contains(txt, want) {
			t.Fatalf("stats dump missing %q:\n%s", want, txt)
		}
	}
}

// TestServerPipelinedBatch drives the async API at depth and checks replies
// arrive positionally.
func TestServerPipelinedBatch(t *testing.T) {
	s := startMultiset(t, server.Config{})
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	const depth = 64
	for i := 0; i < depth; i++ {
		if err := cl.Send(proto.Request{Op: proto.OpSet, Key: int64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < depth; i++ {
		rep, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if applied, err := rep.Bool(); err != nil || !applied {
			t.Fatalf("recv %d: applied=%v err=%v", i, applied, err)
		}
	}
	if cl.Pending() != 0 {
		t.Fatalf("pending = %d after draining", cl.Pending())
	}
	if n, err := cl.Size(); err != nil || n != depth {
		t.Fatalf("size = %d, %v; want %d", n, err, depth)
	}
}

// TestServerMalformedFrame pins that a broken client gets an error frame
// and only its own connection dies.
func TestServerMalformedFrame(t *testing.T) {
	s := startMultiset(t, server.Config{})

	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0, 0, 0, 0}); err != nil { // zero-length frame
		t.Fatalf("write: %v", err)
	}
	r := proto.NewReader(raw, 0)
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatalf("read error frame: %v", err)
	}
	if rep.Status != proto.StatusErr {
		t.Fatalf("status = %v, want ERR", rep.Status)
	}

	// A healthy connection is unaffected.
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after malformed peer: %v", err)
	}
	if n := s.Registry().Sum("kv_server_proto_errors_total"); n != 1 {
		t.Errorf("kv_server_proto_errors_total = %d, want 1", n)
	}
}

// TestServerMaxConns pins the connection-limit backpressure: the connection
// beyond the cap is refused with an error frame.
func TestServerMaxConns(t *testing.T) {
	s := startMultiset(t, server.Config{MaxConns: 1})
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil { // ensure conn 1 is being served
		t.Fatalf("ping: %v", err)
	}

	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer raw.Close()
	r := proto.NewReader(raw, 0)
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatalf("read rejection: %v", err)
	}
	if rep.Status != proto.StatusErr || !strings.Contains(string(rep.Bulk), "connection limit") {
		t.Fatalf("rejection reply: %+v", rep)
	}
	if n := s.Registry().Sum("kv_server_conns_rejected_total"); n != 1 {
		t.Errorf("kv_server_conns_rejected_total = %d, want 1", n)
	}
}

// TestServerShardedStats checks the contention tables of a sharded server
// in the STATS text view once the load is quiescent: one kv_shard_size
// sample per shard, summing to kv_container_size, and per-op engine counts
// summing to the container's kv_engine_ops_total.
func TestServerShardedStats(t *testing.T) {
	const shards, keys = 4, 64
	sh := shard.New(shards, func(int) container.Container { return container.Multiset(multiset.New[int]()) })
	s, err := server.Start(sh, server.Config{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer shutdownNow(t, s)
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for k := 0; k < keys; k++ {
		if applied, err := cl.Set(k); err != nil || !applied {
			t.Fatalf("set %d: %v, %v", k, applied, err)
		}
	}
	txt, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	sum := func(prefix string) (total int64, n int) {
		for _, line := range strings.Split(txt, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				f := strings.Fields(rest)
				v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
				if err != nil {
					t.Fatalf("stats line %q: %v", line, err)
				}
				total += v
				n++
			}
		}
		return total, n
	}
	size, _ := sum("kv_container_size ")
	shardSize, n := sum("kv_shard_size{")
	if n != shards || size != keys || shardSize != size {
		t.Errorf("%d kv_shard_size samples summing to %d, kv_container_size %d; want %d summing to %d:\n%s",
			n, shardSize, size, shards, keys, txt)
	}
	ops, _ := sum("kv_engine_ops_total ")
	opOps, n := sum("kv_engine_op_ops_total{")
	if n == 0 || ops < keys || opOps != ops {
		t.Errorf("kv_engine_op_ops_total: %d samples summing to %d, kv_engine_ops_total %d (want >= %d):\n%s",
			n, opOps, ops, keys, txt)
	}
}

// TestServerIdleTimeout pins that a silent connection is collected.
func TestServerIdleTimeout(t *testing.T) {
	s := startMultiset(t, server.Config{IdleTimeout: 50 * time.Millisecond})
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	cl.Conn().SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := cl.Recv(); err == nil {
		t.Fatal("idle connection still alive: got a reply")
	}
}

// TestServerSoakConservationAcrossShutdown is the PR 3 conservation
// invariant measured across the wire: N pipelined connections churn a
// sharded multiset, the server is shut down mid-run, and the sum of every
// client's acknowledged inserts minus acknowledged deletes must equal the
// server's final Size — an acknowledged operation is never lost, an
// unacknowledged one is never applied. The per-key union of the shards is
// cross-checked too, plus each shard's structural invariants.
func TestServerSoakConservationAcrossShutdown(t *testing.T) {
	// Force real multi-core scheduling (oversubscribed on smaller hosts):
	// the batched fast path folds per-connection counters and shares WAL
	// commit groups across connections, and this soak — especially under
	// -race — is where cross-connection interleavings would surface.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		shards = 4
		conns  = 6
		depth  = 32
		keys   = 96
	)
	sets := make([]*multiset.Multiset[int], shards)
	sh := shard.New(shards, func(i int) container.Container {
		sets[i] = multiset.New[int]()
		return container.Multiset(sets[i])
	})
	s, err := server.Start(sh, server.Config{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	var (
		ins, del atomic.Int64
		netByKey [keys]atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(s.Addr().String())
			if err != nil {
				t.Errorf("conn %d: dial: %v", w, err)
				return
			}
			defer cl.Close()
			// Bound every read so a test failure cannot hang the suite.
			cl.Conn().SetReadDeadline(time.Now().Add(30 * time.Second))
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var kinds [depth]proto.Op
			var batchKeys [depth]int
			for {
				sent := 0
				for i := 0; i < depth; i++ {
					k := rng.Intn(keys)
					op := proto.OpSet
					switch rng.Intn(5) {
					case 0, 1: // 40% delete
						op = proto.OpDel
					case 2: // 20% get
						op = proto.OpGet
					}
					if err := cl.Send(proto.Request{Op: op, Key: int64(k)}); err != nil {
						break
					}
					kinds[sent], batchKeys[sent] = op, k
					sent++
				}
				flushErr := cl.Flush()
				// Drain replies for this batch; each one is a binding
				// acknowledgement even if the flush or a later recv fails.
				recvErr := error(nil)
				for i := 0; i < sent; i++ {
					rep, err := cl.Recv()
					if err != nil {
						recvErr = err
						break
					}
					applied := rep.Status == proto.StatusTrue
					if !applied {
						continue
					}
					switch kinds[i] {
					case proto.OpSet:
						ins.Add(1)
						netByKey[batchKeys[i]].Add(1)
					case proto.OpDel:
						del.Add(1)
						netByKey[batchKeys[i]].Add(-1)
					}
				}
				if flushErr != nil || recvErr != nil || sent < depth {
					return // server is draining; everything acked is counted
				}
			}
		}(w)
	}

	// Let the churn build up, then pull the rug mid-run.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if t.Failed() {
		return
	}
	wantSize := int(ins.Load() - del.Load())
	if got := s.Size(); got != wantSize {
		t.Errorf("conservation violated across shutdown: final Size %d, want %d (%d acked inserts - %d acked deletes)",
			got, wantSize, ins.Load(), del.Load())
	}
	// Per-key cross-check against the union of the shards, plus structural
	// invariants per shard.
	items := make(map[int]int)
	for i, m := range sets {
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
		for k, n := range m.Items() {
			items[k] += n
		}
	}
	for k := 0; k < keys; k++ {
		if got, want := int64(items[k]), netByKey[k].Load(); got != want {
			t.Errorf("key %d: server count %d, acked net %d", k, got, want)
		}
	}
	if ins.Load() == 0 {
		t.Error("soak applied no inserts; the run did not exercise the server")
	}
}

// TestServerShutdownIdleConns pins that Shutdown does not wait on idle
// connections blocked in a read.
func TestServerShutdownIdleConns(t *testing.T) {
	s, err := server.Start(container.Multiset(multiset.New[int]()), server.Config{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	cl, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown with one idle conn took %v", d)
	}
}
