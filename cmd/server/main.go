// Command server serves any structure in the harness registry over TCP
// with the internal/proto KV protocol — the end of the stack the paper's
// primitives were built for: LLX/SCX (PR 1) under the template engine
// (PR 2) behind the container/shard layers (PR 3) with GC-free recycling
// (PR 4), now taking traffic from a socket. `server -list` prints the
// servable structure names (the same registry Factories() gives the
// experiments, so a structure added there is servable with no server
// change — the hash map arrived that way).
//
// Usage:
//
//	server -list
//	server [-addr 127.0.0.1:7700] [-structure llx-multiset] [-shards 1]
//	       [-policy immediate|backoff[:BASE:MAX]|spinyield[:SPINS]]
//	       [-maxconns 1024] [-idletimeout 0] [-metrics host:port]
//	       [-pprof host:port] [-slowop 10ms]
//	       [-wal-dir DIR] [-fsync-interval 0] [-segment-bytes 16MiB]
//	       [-snapshot-every 0]
//
// -metrics serves the observability plane over HTTP. Both metrics views
// render the server's one metrics store, its obs registry: /metrics prints
// one line per sample (the same text the STATS command returns in-band),
// /metrics?format=prom is the Prometheus text exposition, and /trace is
// the slow-op trace ring (flush intervals slower than -slowop, also
// readable in-band via the TRACE command). -pprof serves the standard
// net/http/pprof profiles on a separate address. On SIGINT/SIGTERM the
// server shuts down gracefully — drains in-flight operations, flushes
// their acknowledgements, closes sessions — and reports the final Size,
// which by the conservation invariant equals the sum of every client's
// acknowledged inserts minus acknowledged deletes.
//
// -wal-dir turns on the durability layer (PR 6): the server recovers its
// state from DIR (newest snapshot plus write-ahead-log tail) before taking
// its first connection, and from then on acknowledges an operation only
// after its log record is fsynced — group-committed, so a pipelined batch
// costs one fsync. -fsync-interval widens the commit window at a latency
// cost; -snapshot-every takes periodic snapshots and truncates the log
// behind them. If the disk fails mid-run (fsync error), the server stops
// acknowledging, drains, reports the fault, and exits non-zero: restart it
// on the same -wal-dir to recover everything it ever acked.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pragmaprim/internal/harness"
	"pragmaprim/internal/server"
	"pragmaprim/internal/shard"
	"pragmaprim/internal/snapshot"
	"pragmaprim/internal/template"
	"pragmaprim/internal/wal"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "TCP listen address (use :0 for a random port)")
		structure = flag.String("structure", "llx-multiset", "structure to serve: "+strings.Join(harness.StructureNames(), ", "))
		shards    = flag.Int("shards", 1, "hash-partition the structure across this many shards (rounds up to a power of two)")
		policy    = flag.String("policy", "", "retry policy: immediate, backoff[:BASE:MAX] or spinyield[:SPINS] (default: the structure's own)")
		maxConns  = flag.Int("maxconns", server.DefaultMaxConns, "refuse connections beyond this many (<0 for unlimited)")
		idle      = flag.Duration("idletimeout", 0, "close connections idle for this long (0 disables)")
		metrics   = flag.String("metrics", "", "serve /metrics (one line per registry sample, as STATS; ?format=prom for the Prometheus exposition) and /trace over HTTP at this address (empty disables)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof profiles over HTTP at this address under /debug/pprof/ (empty disables)")
		slowOp    = flag.Duration("slowop", 0, "flush intervals at least this slow enter the TRACE ring (0: the 10ms default; <0 disables)")
		drainWait = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget before connections are force-closed")
		walDir    = flag.String("wal-dir", "", "directory for the write-ahead log and snapshots; enables durability (empty disables)")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "group-commit window: wait this long before each fsync so more records share it (0: fsync as soon as a commit is demanded)")
		segBytes  = flag.Int64("segment-bytes", 0, "rotate WAL segments at this size (0: the library default, 16 MiB)")
		snapEvery = flag.Duration("snapshot-every", 0, "take a snapshot and truncate the WAL behind it at this interval (0 disables; requires -wal-dir)")
		list      = flag.Bool("list", false, "print the servable structure names, one per line, and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range harness.StructureNames() {
			fmt.Println(name)
		}
		return 0
	}

	pol, err := template.PolicyByName(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		return 2
	}
	if *shards > 1 {
		// BuildContainer rounds internally; round here too so every report
		// shows the topology actually built.
		*shards = shard.NextPow2(*shards)
	}
	cont, err := harness.BuildContainer(*structure, *shards, pol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		return 2
	}

	// Durability: recover state from the WAL directory BEFORE the listener
	// exists — no connection is ever served from a partially rebuilt store.
	var (
		dur     *server.Durability
		log     *wal.Log
		barrier *snapshot.Barrier
	)
	if *walDir != "" {
		width := 1
		if *shards > 1 {
			width = *shards
		}
		barrier = snapshot.NewBarrier(width)
		t0 := time.Now()
		l, rstats, err := snapshot.Recover(cont, *walDir, wal.Options{
			SegmentBytes:  *segBytes,
			FsyncInterval: *fsyncIvl,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "server: recovery: %v\n", err)
			return 1
		}
		log = l
		defer log.Close()
		snapNote := "no snapshot"
		if rstats.SnapshotFile != "" {
			snapNote = fmt.Sprintf("snapshot %s (%d keys)", rstats.SnapshotFile, rstats.SnapshotKeys)
		}
		fmt.Printf("server: recovered %s in %v: %s, %d records replayed (%d covered), %d occurrences installed, log at LSN %d\n",
			*walDir, time.Since(t0).Round(time.Millisecond), snapNote,
			rstats.Replayed, rstats.Skipped, rstats.Installed, rstats.LastLSN)
		dur = &server.Durability{Log: log, Barrier: barrier}
	} else if *snapEvery > 0 {
		fmt.Fprintln(os.Stderr, "server: -snapshot-every requires -wal-dir")
		return 2
	}

	srv, err := server.Start(cont, server.Config{
		Addr:            *addr,
		MaxConns:        *maxConns,
		IdleTimeout:     *idle,
		Durable:         dur,
		SlowOpThreshold: *slowOp,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		return 1
	}
	fmt.Printf("server: serving %s", *structure)
	if *shards > 1 {
		fmt.Printf(" over %d shards", *shards)
	}
	if dur != nil {
		fmt.Printf(" durably (wal %s)", *walDir)
	}
	fmt.Printf(" on %s\n", srv.Addr())

	var mgr *snapshot.Manager
	if dur != nil && *snapEvery > 0 {
		mgr = snapshot.StartManager(cont, barrier, log, wal.OS, *walDir, *snapEvery, func(err error) {
			fmt.Fprintf(os.Stderr, "server: snapshot: %v\n", err)
		})
		fmt.Printf("server: snapshotting every %v\n", *snapEvery)
	}

	var msrv *http.Server
	if *metrics != "" {
		msrv = &http.Server{Addr: *metrics, Handler: srv.Handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "server: metrics endpoint: %v\n", err)
			}
		}()
		fmt.Printf("server: metrics on http://%s/metrics (?format=prom), trace on /trace\n", *metrics)
	}

	// pprof rides its own listener and an explicit mux — never the default
	// mux, so profiles are only exposed where the operator asked.
	var psrv *http.Server
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv = &http.Server{Addr: *pprofAddr, Handler: mux}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "server: pprof endpoint: %v\n", err)
			}
		}()
		fmt.Printf("server: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("server: signal %v, draining\n", s)
	case <-srv.FaultC():
		fmt.Fprintf(os.Stderr, "server: durability fault: %v; draining\n", srv.Fault())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	if msrv != nil {
		msrv.Shutdown(ctx)
	}
	if psrv != nil {
		psrv.Shutdown(ctx)
	}
	if mgr != nil {
		mgr.Close()
	}
	if dur != nil && srv.Fault() == nil {
		// Clean shutdown: one final snapshot bounds the next restart's
		// replay. Best effort — the log alone already carries everything.
		if mgr != nil {
			mgr.Snapshot()
		}
		lm := log.Metrics()
		fmt.Printf("server: wal at LSN %d (%d appends, %d fsyncs, %d segments)\n",
			lm.LastLSN, lm.Appends, lm.Fsyncs, lm.Segments)
	}
	reg := srv.Registry()
	fmt.Printf("server: drained: %d ops served over %d connections, final size %d\n",
		reg.Sum("kv_server_ops_total"), reg.Sum("kv_server_conns_accepted_total"), srv.Size())
	if shutdownErr != nil {
		fmt.Fprintf(os.Stderr, "server: shutdown forced after %v: %v\n", *drainWait, shutdownErr)
		return 1
	}
	if err := srv.Fault(); err != nil {
		fmt.Fprintf(os.Stderr, "server: exiting on durability fault: %v (restart on the same -wal-dir to recover)\n", err)
		return 1
	}
	return 0
}
