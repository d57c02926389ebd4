// Package server is the TCP serving layer over the container stack: it
// exposes any container.Container — one of the seven structures, sharded or
// not — over the internal/proto wire protocol.
//
// The design puts the per-connection cost where PRs 1-4 put the
// per-operation cost: at zero in steady state. Each accepted connection is
// owned by exactly one goroutine that binds a container.Session once, so
// the pooled-Handle/epoch fast path is paid at accept time, not per
// operation; the proto Reader and Writer give the connection two reusable
// buffers, so the request→apply→reply loop allocates nothing after warmup.
//
// The loop's unit of work is a batch, not a frame: every complete frame the
// socket already delivered is decoded into a reusable request batch, the
// batch is applied through the pinned Session inside one epoch guard (the
// per-op guards nest into depth-counter bumps), its log records — with
// durability on — are appended as one WAL batch, every reply lands in the
// write buffer through a flat per-opcode dispatch table, and the writer
// hits the socket only when the read buffer runs dry (one flush per
// pipelined batch). Syscalls, epoch transitions, WAL mutex rounds, shared
// counter updates and fsyncs are all amortized over the batch; the
// kv_server_batch_ops histogram makes the amortization observable.
//
// Every count the server keeps lives in one place, its obs.Registry: the
// server's own counters and histograms are registry instruments, and the
// other layers' state (WAL, engine, reclaim, container size) is sampled by
// pull functions at scrape time. STATS and the plain /metrics endpoint
// render the registry with WriteText, /metrics?format=prom with WriteProm.
//
// Backpressure is structural rather than queued: there is no request queue
// to grow without bound. A connection's requests are processed strictly in
// order by its one goroutine (TCP's own flow control throttles a client
// that outruns it), connections beyond MaxConns are refused with an error
// frame, and IdleTimeout reclaims connections that stop talking.
//
// Graceful shutdown preserves the conservation invariant across the wire:
// an operation is acknowledged only after it was applied, and a draining
// connection always flushes the acknowledgements of everything it applied
// before closing. Shutdown therefore loses requests (unread ones are never
// applied, so the client never sees an ack for them) but never
// acknowledged operations — the server's final Size equals the sum of every
// client's acknowledged inserts minus acknowledged deletes, which the soak
// test checks literally. See DESIGN.md, "The network service layer".
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pragmaprim/internal/container"
	"pragmaprim/internal/obs"
	"pragmaprim/internal/proto"
	"pragmaprim/internal/reclaim"
	"pragmaprim/internal/shard"
	"pragmaprim/internal/template"
	"pragmaprim/internal/wal"
)

// Config tunes a Server. The zero value serves on a random loopback port
// with library defaults.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0" (a random
	// loopback port, reported by Server.Addr).
	Addr string
	// MaxConns caps concurrently served connections; beyond it new
	// connections are refused with an error frame. 0 means DefaultMaxConns;
	// negative means unlimited.
	MaxConns int
	// IdleTimeout closes a connection that sends nothing for this long.
	// 0 disables idle collection (shutdown still interrupts blocked reads
	// via deadlines).
	IdleTimeout time.Duration
	// ReadBuf and WriteBuf are the per-connection proto buffer sizes;
	// 0 means proto.DefaultBufSize.
	ReadBuf, WriteBuf int
	// Durable, when non-nil, turns on the write-ahead logging path: acked ⇔
	// durable instead of acked ⇔ applied. See Durability.
	Durable *Durability
	// Obs is the registry that holds every count the server reports: its
	// own counters and latency/batch-size histograms, the WAL histograms,
	// and pull gauges over the WAL, engine, reclaim and container state. nil
	// means a fresh private registry. The observability plane is always
	// on — its record path is allocation-free and costs a handful of atomic
	// adds per flush, so there is no off switch. One registry serves one
	// server (registering two servers into one duplicates the sample names).
	Obs *obs.Registry
	// SlowOpThreshold is the flush-interval duration at or above which the
	// interval's operations are captured in the slow-op trace ring
	// (readable via the TRACE command and the /trace endpoint). 0 means
	// DefaultSlowOp; negative disables capture.
	SlowOpThreshold time.Duration
	// TraceDepth is the slow-op ring capacity (rounded up to a power of
	// two); 0 means obs.DefaultTraceDepth.
	TraceDepth int
}

// DefaultMaxConns is the connection cap when Config.MaxConns is 0.
const DefaultMaxConns = 1024

// DefaultSlowOp is the slow-op capture threshold when Config.SlowOpThreshold
// is 0: long enough that a healthy in-memory batch never trips it, short
// enough to catch an fsync stall or an epoch-advance pile-up.
const DefaultSlowOp = 10 * time.Millisecond

// slowTracePerFlush caps how many of a slow flush interval's ops enter the
// trace ring, so one giant slow batch cannot wipe the ring's history.
const slowTracePerFlush = 8

// latStripes is the stripe count of the per-op latency histograms;
// connections spread over the stripes round-robin, so concurrent flushes
// usually record on distinct cache lines.
const latStripes = 8

// maxBatch caps how many requests one decoded batch may hold, bounding the
// reusable request slice however large the read buffer is configured.
const maxBatch = 8192

// flushTimeout bounds the final acknowledgement flush of a closing
// connection, so a dead peer cannot hold shutdown hostage.
const flushTimeout = 5 * time.Second

// Server serves one container over TCP. Start it with Start; stop it with
// Shutdown. All methods are safe for concurrent use.
type Server struct {
	cont container.Container
	cfg  Config
	ln   net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	active atomic.Int64
	// The server's own counts, registry instruments each alone on its cache
	// line. Connections count ops locally and fold into served once per
	// flush, so at multi-core connection counts the counters cost one atomic
	// add per batch per opcode touched — not one per op — and never
	// false-share. batchOps records each batch's size on the connection's
	// stripe; the batch and batched-op totals are its count and sum.
	accepted, rejected, flushes, protoErrs *obs.Counter
	served                                 [proto.OpTrace + 1]*obs.Counter
	batchOps                               *obs.Histogram

	// The observability plane: the registry every instrument lives in, the
	// per-op latency histograms (GET/SET/DEL; batch-grained — see
	// observeFlush), the slow-op trace ring, and the capture threshold in
	// nanoseconds (<= 0 disables capture). stripeSeq deals connections onto
	// histogram stripes.
	reg       *obs.Registry
	opLat     [proto.OpTrace + 1]*obs.Histogram
	trace     *obs.TraceRing
	slowNs    int64
	stripeSeq atomic.Int64

	// Durability state; dur is nil on a purely in-memory server.
	dur       *Durability
	faultC    chan struct{}
	faultOnce sync.Once
	faultErr  error // written once before faultC closes
}

// Start binds the listener and begins accepting connections onto cont. The
// returned Server is already serving; Addr reports the bound address.
func Start(cont container.Container, cfg Config) (*Server, error) {
	if cont == nil {
		return nil, errors.New("server: nil container")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cont:   cont,
		cfg:    cfg,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		dur:    cfg.Durable,
		faultC: make(chan struct{}),
	}
	s.initObs()
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// initObs builds the observability plane: the registry (the configured one
// or a fresh private one), the per-op latency histograms, the slow-op trace
// ring, the WAL recorders, and the pull-based counters and gauges over
// state the server already maintains. Registration happens once here, at
// start; the serving path only ever records.
func (s *Server) initObs() {
	reg := s.cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	s.trace = obs.NewTraceRing(s.cfg.TraceDepth)
	switch {
	case s.cfg.SlowOpThreshold == 0:
		s.slowNs = int64(DefaultSlowOp)
	case s.cfg.SlowOpThreshold > 0:
		s.slowNs = int64(s.cfg.SlowOpThreshold)
	}

	for _, op := range hotOps {
		s.opLat[op] = reg.Histogram("kv_op_latency_ns", latStripes, obs.Label{Key: "op", Value: op.String()})
	}
	reg.GaugeFunc("kv_server_conns_active", s.active.Load)
	s.accepted = reg.Counter("kv_server_conns_accepted_total")
	s.rejected = reg.Counter("kv_server_conns_rejected_total")
	for op := proto.OpPing; op <= proto.OpTrace; op++ {
		s.served[op] = reg.Counter("kv_server_ops_total", obs.Label{Key: "op", Value: op.String()})
	}
	s.flushes = reg.Counter("kv_server_flushes_total")
	s.batchOps = reg.Histogram("kv_server_batch_ops", latStripes)
	reg.CounterFunc("kv_server_batches_total", s.batchOps.Count)
	reg.CounterFunc("kv_server_batched_ops_total", s.batchOps.Sum)
	s.protoErrs = reg.Counter("kv_server_proto_errors_total")
	reg.CounterFunc("kv_server_slow_ops_total", func() int64 { return int64(s.trace.Count()) })
	reg.GaugeFunc("kv_container_size", func() int64 { return int64(s.cont.Size()) })
	for _, c := range contention {
		reg.CounterFunc("kv_engine_"+c.name+"_total", func() int64 { return c.get(s.cont.EngineStats()) })
	}

	// Epoch-reclamation gauges: every session in the process announces in
	// the Default domain, so the progress story — epoch moving, no stale
	// announcement, bounded limbo — is one scrape away.
	d := reclaim.Default
	reg.GaugeFunc("kv_reclaim_epoch", func() int64 { return int64(d.Epoch()) })
	reg.GaugeFunc("kv_reclaim_epoch_lag", func() int64 { return int64(d.Gauges().OldestLag) })
	reg.GaugeFunc("kv_reclaim_active_announcements", func() int64 { return int64(d.Gauges().ActiveSlots) })
	reg.GaugeFunc("kv_reclaim_limbo", func() int64 { return d.Gauges().Limbo })
	reg.GaugeFunc("kv_reclaim_parked", func() int64 { return d.Gauges().Parked })
	reg.GaugeFunc("kv_reclaim_free", func() int64 { return d.Gauges().Free })
	reg.GaugeFunc("kv_reclaim_overflow", func() int64 { return d.Gauges().Overflow })
	reg.CounterFunc("kv_reclaim_advances_total", func() int64 { return int64(d.Advances()) })
	reg.CounterFunc("kv_reclaim_advance_attempts_total", func() int64 { return int64(d.Gauges().Attempts) })
	reg.CounterFunc("kv_reclaim_scavenged_total", func() int64 { return int64(d.Scavenged()) })

	if s.dur != nil {
		s.dur.Log.SetHists(wal.Hists{
			Fsync:  reg.Histogram("kv_wal_fsync_ns", 1).Recorder(0),
			Commit: reg.Histogram("kv_wal_commit_ns", 1).Recorder(0),
			Batch:  reg.Histogram("kv_wal_commit_records", 1).Recorder(0),
		})
		lm := s.dur.Log.Metrics
		reg.CounterFunc("kv_wal_appends_total", func() int64 { return lm().Appends })
		reg.CounterFunc("kv_wal_commits_total", func() int64 { return lm().Commits })
		reg.CounterFunc("kv_wal_fsyncs_total", func() int64 { return lm().Fsyncs })
		reg.CounterFunc("kv_wal_rotations_total", func() int64 { return lm().Rotations })
		reg.GaugeFunc("kv_wal_durable_lsn", func() int64 { return int64(lm().Durable) })
		reg.GaugeFunc("kv_wal_last_lsn", func() int64 { return int64(lm().LastLSN) })
		reg.GaugeFunc("kv_wal_segments", func() int64 { return int64(lm().Segments) })
		reg.GaugeFunc("kv_wal_fault", func() int64 {
			if s.Fault() != nil {
				return 1
			}
			return 0
		})
	}

	// Contention per operation and per shard. These are families of their
	// own rather than labels on kv_engine_*_total, whose samples consumers
	// sum across label sets.
	var ops []string
	for op := range s.cont.StatsByOp() {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		for _, c := range contention {
			reg.CounterFunc("kv_engine_op_"+c.name+"_total",
				func() int64 { return c.get(s.cont.StatsByOp()[op]) }, obs.Label{Key: "op", Value: op})
		}
	}
	if sh, ok := s.cont.(*shard.Sharded); ok {
		sh.ForEachShard(func(i int, sc container.Container) {
			l := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
			reg.GaugeFunc("kv_shard_size", func() int64 { return int64(sc.Size()) }, l)
			for _, c := range contention {
				reg.GaugeFunc("kv_shard_"+c.name, func() int64 { return c.get(sc.EngineStats()) }, l)
			}
		})
	}
}

// contention names the template-engine counters exported per container,
// per operation and per shard. Attempts are ops + retries.
var contention = [...]struct {
	name string
	get  func(template.Counters) int64
}{
	{"ops", func(c template.Counters) int64 { return c.Ops }},
	{"retries", template.Counters.Retries},
	{"llx_fails", func(c template.Counters) int64 { return c.LLXFails }},
	{"scx_fails", func(c template.Counters) int64 { return c.SCXFails }},
}

// hotOps are the opcodes with per-op latency histograms: the data-path trio
// whose latency a client actually feels.
var hotOps = [...]proto.Op{proto.OpGet, proto.OpSet, proto.OpDel}

// Registry returns the server's metrics registry (for HTTP handlers and
// tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Addr returns the listener's bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Size returns the served container's Size — exact once Shutdown has
// returned, weakly consistent while serving.
func (s *Server) Size() int { return s.cont.Size() }

// Container returns the served container, for metrics endpoints and tests.
func (s *Server) Container() container.Container { return s.cont }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	// Transient accept failures (EMFILE under an fd squeeze, ECONNABORTED)
	// must not kill the listener forever: back off and retry, resetting on
	// success. Only a closed listener (shutdown) ends the loop.
	backoff := 5 * time.Millisecond
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.draining.Load() {
				return
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if n := s.active.Add(1); s.cfg.MaxConns > 0 && n > int64(s.cfg.MaxConns) {
			s.rejected.Inc()
			if !s.register(c) {
				s.active.Add(-1)
				c.Close()
				continue
			}
			go s.rejectConn(c)
			continue
		}
		if !s.register(c) {
			s.active.Add(-1)
			c.Close()
			continue
		}
		s.accepted.Inc()
		go s.serve(c)
	}
}

// rejectConn tells an over-limit client why it is being dropped. Best
// effort, bounded by a write deadline; registered like any connection so
// Shutdown waits for (or force-closes) it.
func (s *Server) rejectConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.active.Add(-1)
	defer s.untrack(c)
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(flushTimeout))
	w := proto.NewWriter(c, 64)
	w.WriteErr("server: connection limit reached")
	w.Flush()
}

// register atomically checks draining and enrolls the connection in the
// tracked set and the drain WaitGroup. The mutex makes registration and
// Shutdown's drain mutually exclusive: a connection registered before
// Shutdown takes the lock is both kicked and awaited; one that loses the
// race is refused here — so connWG.Add can never race connWG.Wait and no
// serve goroutine outlives Shutdown.
func (s *Server) register(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// pastDeadline unblocks a pending read immediately and permanently: Go
// deadlines are absolute, so once set, every future socket read fails while
// already-buffered frames remain parseable.
var pastDeadline = time.Unix(1, 0)

// connState is one connection's loop state: its pinned session, its two
// reusable buffers, the reusable decoded-request batch, and the durability
// bookkeeping — the highest log sequence number this connection appended
// but has not yet committed, whether the connection went dead (its buffered
// replies must never reach the socket, because they would acknowledge
// writes that are not durable), and the current batch's applied-but-
// unappended records plus the barrier partitions held for them.
type connState struct {
	sess  container.Session
	r     *proto.Reader
	w     *proto.Writer
	batch []proto.Request
	// served counts ops locally; foldCounters merges it into the shared
	// kv_server_ops_total counters once per flush boundary instead of once
	// per op.
	served [proto.OpTrace + 1]int64
	// Latency plane, all connection-local: lat holds this connection's
	// stripe of each hot op's histogram and batchRec its stripe of the
	// batch-size histogram (assigned once at accept), latPend
	// counts ops awaiting the flush-boundary RecordN, t0/timed bracket the
	// current flush interval (first batch decode → reply flush), commitWait
	// is the interval's WAL group-commit wait, and lastRetries is the
	// engine-retry watermark from the previous slow-op sample.
	lat         [proto.OpTrace + 1]*obs.Recorder
	batchRec    *obs.Recorder
	latPend     [proto.OpTrace + 1]int64
	t0          time.Time
	timed       bool
	commitWait  int64
	lastRetries int64
	pend        uint64
	dead        bool
	// Durable batch state (nil/empty on an in-memory server): records
	// applied this batch awaiting the batch append, and the barrier
	// partitions read-locked since the batch's first write. held is the
	// dedupe index over parts.
	recs  []wal.Record
	held  []bool
	parts []int
}

// serve owns one connection for its whole life: one goroutine, one pinned
// Session, one Reader, one Writer. The loop is the hot path of the whole
// serving stack; in steady state it allocates nothing.
//
// The loop's unit of work is a batch, not a frame: ReadRequestBatch blocks
// for the first request and then drains every complete frame the socket
// already delivered, serveBatch applies them all inside one epoch guard and
// one WAL append, and the write buffer answers them with one flush when the
// read buffer runs dry.
func (s *Server) serve(c net.Conn) {
	defer s.connWG.Done()
	st := &connState{
		sess:  s.cont.NewSession(),
		r:     proto.NewReader(c, s.cfg.ReadBuf),
		w:     proto.NewWriter(c, s.cfg.WriteBuf),
		batch: make([]proto.Request, 0, 64),
	}
	if s.dur != nil {
		n := s.dur.Barrier.Shards()
		st.recs = make([]wal.Record, 0, 64)
		st.held = make([]bool, n)
		st.parts = make([]int, 0, n)
	}
	// Deal this connection onto one stripe of each hot op's latency
	// histogram and of the batch-size histogram: concurrent flushes then
	// usually record on distinct cache lines, and the scrape folds the
	// stripes back together.
	stripe := int(s.stripeSeq.Add(1))
	for _, op := range hotOps {
		st.lat[op] = s.opLat[op].Recorder(stripe)
	}
	st.batchRec = s.batchOps.Recorder(stripe)
	st.lastRetries = s.cont.EngineStats().Retries()

	for {
		if s.cfg.IdleTimeout > 0 && st.r.Buffered() == 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			if s.draining.Load() {
				// Close the arm/kick race: if Shutdown's kick landed between
				// the draining check and our re-arm, re-kick ourselves.
				c.SetReadDeadline(pastDeadline)
			}
		}
		var err error
		st.batch, err = st.r.ReadRequestBatch(st.batch[:0], maxBatch)
		if n := len(st.batch); n > 0 {
			if !st.timed {
				// Open the flush interval at the first decoded batch; it
				// closes in observeFlush when the replies are flushed.
				st.t0 = time.Now()
				st.timed = true
			}
			st.batchRec.Record(int64(n))
			if herr := s.serveBatch(st); herr != nil {
				break
			}
		}
		if err != nil {
			if errors.Is(err, proto.ErrMalformed) {
				// The stream cannot be resynchronized; tell the peer why
				// before hanging up. Requests decoded before the bad frame
				// were served above, and their buffered replies still go
				// out below — after their records are committed, if
				// durable.
				s.protoErrs.Inc()
				if s.dur == nil || s.commitPend(st) == nil {
					st.w.WriteErr(err.Error())
				}
			}
			break
		}
		// Reply-batching rule: flush only when the read buffer runs dry —
		// every request of a pipelined batch lands its reply in the write
		// buffer first, then one flush answers the whole batch. With
		// durability on, the batch's records are group-committed first:
		// one fsync, then one flush, covers the whole batch. While
		// draining, frames already buffered are still served (they were
		// received before the drain), and the connection closes once the
		// buffer empties.
		if st.r.Buffered() == 0 {
			if s.dur != nil {
				cw := time.Now()
				if s.commitPend(st) != nil {
					break
				}
				st.commitWait += int64(time.Since(cw))
			}
			s.foldCounters(st)
			// Record before the flush hits the socket: once the client has
			// the replies, the scrape already has the samples.
			s.observeFlush(st)
			s.flushes.Inc()
			if err := st.w.Flush(); err != nil {
				break
			}
			if s.draining.Load() {
				break
			}
			// The batch is answered and the connection is about to block on
			// the socket for an unbounded time. Quiesce the session so its
			// (amortized, still-published) epoch announcement does not go
			// stale while we sleep — an idle connection would otherwise
			// delay memory reclamation for every structure in the process.
			// The batch guard is closed here by construction (serveBatch
			// brackets it), which Quiesce requires.
			st.sess.Quiesce()
		}
	}

	// Exit path, in conservation order: commit any records still pending,
	// flush acknowledgements of every applied (and now durable) operation,
	// then close the socket, then release the Session (returning its pooled
	// Handle and letting the reclamation epoch advance past this goroutine).
	// A dead connection skips the flush: its buffered replies would
	// acknowledge writes the log could not make durable. serveBatch seals
	// every batch before returning, so no barrier partition is held here.
	s.foldCounters(st)
	s.observeFlush(st)
	if s.dur != nil && !st.dead {
		s.commitPend(st)
	}
	if !st.dead {
		c.SetWriteDeadline(time.Now().Add(flushTimeout))
		s.flushes.Inc()
		st.w.Flush()
	}
	c.Close()
	st.sess.Close()
	s.untrack(c)
	s.active.Add(-1)
}

// replyHeadroom is the largest non-bulk reply frame (13 bytes) with margin;
// see the pre-commit guard in serveBatch.
const replyHeadroom = 32

// opFunc is one entry of the flat dispatch table: apply one request to the
// connection and buffer its reply.
type opFunc func(s *Server, st *connState, key int64) error

// opTable dispatches by opcode with one indexed load instead of a switch.
// Indexing by req.Op without a bounds check beyond the array's own is safe
// because the parser rejects opcodes outside [OpPing, OpTrace].
var opTable = [proto.OpTrace + 1]opFunc{
	proto.OpPing:  (*Server).opPing,
	proto.OpGet:   (*Server).opGet,
	proto.OpSet:   (*Server).opSet,
	proto.OpDel:   (*Server).opDel,
	proto.OpSize:  (*Server).opSize,
	proto.OpStats: (*Server).opStats,
	proto.OpCount: (*Server).opCount,
	proto.OpTrace: (*Server).opTrace,
}

func (s *Server) opPing(st *connState, _ int64) error {
	return st.w.WritePong()
}

func (s *Server) opGet(st *connState, key int64) error {
	return st.w.WriteBool(st.sess.Get(int(key)))
}

func (s *Server) opSet(st *connState, key int64) error {
	if s.dur != nil {
		return s.applyDurable(st, wal.OpInsert, key)
	}
	return st.w.WriteBool(st.sess.Insert(int(key)))
}

func (s *Server) opDel(st *connState, key int64) error {
	if s.dur != nil {
		return s.applyDurable(st, wal.OpDelete, key)
	}
	return st.w.WriteBool(st.sess.Delete(int(key)))
}

func (s *Server) opSize(st *connState, _ int64) error {
	return st.w.WriteInt(int64(s.cont.Size()))
}

func (s *Server) opStats(st *connState, _ int64) error {
	s.foldCounters(st) // STATS should see this batch's ops
	var b strings.Builder
	s.reg.WriteText(&b)
	return st.w.WriteBulk([]byte(b.String()))
}

func (s *Server) opCount(st *connState, key int64) error {
	if n := st.sess.Count(int(key)); n >= 0 {
		return st.w.WriteInt(int64(n))
	}
	return st.w.WriteErr("server: container cannot count a single key")
}

func (s *Server) opTrace(st *connState, _ int64) error {
	var b strings.Builder
	s.WriteTrace(&b)
	return st.w.WriteBulk([]byte(b.String()))
}

// serveBatch applies one decoded batch and buffers every reply. The whole
// batch runs inside a single epoch guard: with the announcement already
// published, the per-op guards inside the session collapse to depth-counter
// bumps, so epoch protection costs one Enter/Exit per batch. Replies are
// buffered before the batch returns, so an applied operation can never miss
// its acknowledgement — and with durability on, a reply never reaches the
// socket before its record's commit group is fsynced (the pre-commit guard
// below seals and commits ahead of any reply write that could overflow the
// buffer into an implicit flush). Every return path seals the batch first:
// barrier partitions are never held past serveBatch.
func (s *Server) serveBatch(st *connState) error {
	if err := st.w.Err(); err != nil {
		// The ack path is broken (a flush failed): applying more operations
		// would change state this connection can never acknowledge. Stop
		// immediately; everything acked so far was applied, everything
		// applied was flushed before the writer died or dies with the
		// conservation accounting intact.
		return err
	}
	st.sess.BatchStart()
	for i := range st.batch {
		req := st.batch[i]
		st.served[req.Op]++
		if s.dur != nil && (st.pend > 0 || len(st.recs) > 0) {
			// A full write buffer auto-flushes inside the reply write,
			// which would put acks on the wire before their records are
			// durable. Seal and commit first when this reply might not fit
			// (the bulk STATS and TRACE replies always force it; the keyed
			// replies are covered by replyHeadroom). The epoch guard is
			// dropped around the fsync so a slow disk never pins the
			// reclamation epoch.
			if req.Op == proto.OpStats || req.Op == proto.OpTrace || st.w.Buffered()+replyHeadroom > st.w.Cap() {
				st.sess.BatchEnd()
				err := s.sealBatch(st)
				if err == nil {
					err = s.commitPend(st)
				}
				if err != nil {
					return err
				}
				st.sess.BatchStart()
			}
		}
		if err := opTable[req.Op](s, st, req.Key); err != nil {
			st.sess.BatchEnd()
			if s.dur != nil {
				s.sealBatch(st)
			}
			return err
		}
	}
	st.sess.BatchEnd()
	if s.dur != nil {
		return s.sealBatch(st)
	}
	return nil
}

// foldCounters merges the connection's local per-op counts into the shared
// kv_server_ops_total counters. Called at flush boundaries, on STATS, and at connection
// exit — so shared-counter traffic is per batch, not per op, and /metrics
// lags a connection's in-flight batch by at most one flush.
func (s *Server) foldCounters(st *connState) {
	for op := range st.served {
		if n := st.served[op]; n != 0 {
			s.served[op].Add(n)
			st.latPend[op] += n
			st.served[op] = 0
		}
	}
}

// observeFlush closes the connection's current flush interval: it records
// the interval's duration into each hot op's latency histogram (batch-
// grained — every op in the interval gets the same sample, which is exactly
// the latency the pipelined client observed) and, when the interval crossed
// the slow threshold, captures its ops in the trace ring. Runs at flush
// boundaries only, after foldCounters; a mid-batch STATS fold accumulates
// into latPend without recording, so each op is recorded exactly once.
func (s *Server) observeFlush(st *connState) {
	if !st.timed {
		return
	}
	dt := int64(time.Since(st.t0))
	for _, op := range hotOps {
		if n := st.latPend[op]; n > 0 {
			if r := st.lat[op]; r != nil {
				r.RecordN(dt, n)
			}
		}
	}
	if s.slowNs > 0 && dt >= s.slowNs {
		s.traceSlow(st, dt)
	}
	for op := range st.latPend {
		st.latPend[op] = 0
	}
	st.commitWait = 0
	st.timed = false
}

// traceSlow records up to slowTracePerFlush of the slow interval's keyed ops
// into the trace ring. The engine-retry count is a per-container total, so
// the retries attributed to this interval are the delta since this
// connection's previous slow sample — an approximation (other connections
// retry too) that is cheap and still points at contention storms.
func (s *Server) traceSlow(st *connState, dt int64) {
	retries := s.cont.EngineStats().Retries()
	dRetries := retries - st.lastRetries
	st.lastRetries = retries
	now := time.Now().UnixNano()
	n := 0
	for i := range st.batch {
		req := st.batch[i]
		if !req.Op.Keyed() {
			continue
		}
		s.trace.Record(obs.TraceEntry{
			When:       now,
			Op:         int64(req.Op),
			Key:        req.Key,
			Dur:        dt,
			Retries:    dRetries,
			CommitWait: st.commitWait,
		})
		if n++; n >= slowTracePerFlush {
			break
		}
	}
	if n == 0 {
		// The slow interval had no keyed ops (PING/STATS/SIZE only); record
		// one entry anyway so the stall itself is visible.
		s.trace.Record(obs.TraceEntry{
			When: now, Op: int64(proto.OpPing), Key: -1,
			Dur: dt, Retries: dRetries, CommitWait: st.commitWait,
		})
	}
}

// Shutdown stops the server gracefully: it stops accepting, interrupts
// every connection's pending read, lets each connection finish serving the
// requests it has already received (acknowledgements flushed), then closes
// sockets and sessions. It returns nil once every connection has drained,
// or ctx.Err() after force-closing the stragglers when the context
// expires. After Shutdown returns, Size is exact and stable.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(pastDeadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.acceptWG.Wait()
	return err
}

// WriteTrace renders the slow-op trace ring, newest first: one header line
// (captures so far, threshold, ring capacity) and one line per surviving
// entry. This is what the TRACE command and the /trace endpoint serve.
func (s *Server) WriteTrace(w io.Writer) {
	fmt.Fprintf(w, "trace: slow_ops=%d threshold=%s depth=%d\n",
		s.trace.Count(), time.Duration(s.slowNs), s.trace.Cap())
	entries := s.trace.Snapshot(make([]obs.TraceEntry, 0, s.trace.Cap()))
	now := time.Now().UnixNano()
	for _, e := range entries {
		age := time.Duration(now - e.When).Round(time.Millisecond)
		fmt.Fprintf(w, "trace: #%d age=%s op=%s key=%d dur=%s commit_wait=%s retries=%d\n",
			e.Seq, age, proto.Op(e.Op), e.Key,
			time.Duration(e.Dur).Round(time.Microsecond),
			time.Duration(e.CommitWait).Round(time.Microsecond), e.Retries)
	}
}
