// KV server example: the whole stack end to end — LLX/SCX structures under
// the template engine, hash-sharded behind the container layer, served
// over TCP with the internal/proto protocol, and driven by the pipelining
// client.
//
// The example starts a server over a 4-shard multiset on a random loopback
// port, walks the synchronous client API, fires one pipelined batch (one
// flush out, one flush back — the same reply-batching the server applies),
// prints the op and engine counters from the STATS command, and shuts down
// gracefully: the final Size the server reports equals acknowledged
// inserts minus acknowledged deletes, the conservation invariant carried
// across the wire.
//
// Run with: go run ./examples/kvserver
package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"pragmaprim/internal/client"
	"pragmaprim/internal/harness"
	"pragmaprim/internal/proto"
	"pragmaprim/internal/server"
)

func main() {
	// Serve the paper's multiset over 4 hash shards; any of the seven
	// structure names from the harness works here.
	cont, err := harness.BuildContainer("llx-multiset", 4, nil)
	check(err)
	srv, err := server.Start(cont, server.Config{})
	check(err)
	fmt.Printf("serving llx-multiset/4sh on %s\n", srv.Addr())

	cl, err := client.Dial(srv.Addr().String())
	check(err)
	defer cl.Close()

	// Synchronous API: one round trip per call.
	check(cl.Ping())
	applied, err := cl.Set(7)
	check(err)
	fmt.Printf("SET 7   -> applied=%v\n", applied)
	found, err := cl.Get(7)
	check(err)
	fmt.Printf("GET 7   -> found=%v\n", found)
	applied, err = cl.Del(7)
	check(err)
	fmt.Printf("DEL 7   -> applied=%v\n", applied)

	// Pipelined API: 100 inserts in one batch — one socket write out, one
	// reply batch back.
	acked := 0
	for k := 0; k < 100; k++ {
		check(cl.Send(proto.Request{Op: proto.OpSet, Key: int64(k)}))
	}
	check(cl.Flush())
	for i := 0; i < 100; i++ {
		rep, err := cl.Recv()
		check(err)
		if rep.Status == proto.StatusTrue {
			acked++
		}
	}
	size, err := cl.Size()
	check(err)
	fmt.Printf("pipelined batch: %d acked inserts, SIZE -> %d\n", acked, size)

	// The STATS command returns the server's metrics registry as text, one
	// line per sample; show the ops served and the engine counters of every
	// LLX/SCX update the batch ran (attempts = ops + retries).
	stats, err := cl.Stats()
	check(err)
	shown := make(map[string]bool)
	for _, line := range strings.Split(stats, "\n") {
		family, _, _ := strings.Cut(line, " ")
		family, _, _ = strings.Cut(family, "{")
		if slices.Contains(statsFamilies, family) {
			fmt.Println(line)
			shown[family] = true
		}
	}
	for _, family := range statsFamilies {
		if !shown[family] {
			panic("STATS has no " + family + " sample:\n" + stats)
		}
	}

	// Graceful shutdown: drain, flush acknowledgements, close sessions.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	check(srv.Shutdown(ctx))
	fmt.Printf("drained; final size %d (= acked inserts %d - acked deletes 1)\n", srv.Size(), acked+1)
}

// statsFamilies are the registry families the example prints from STATS.
var statsFamilies = []string{
	"kv_server_ops_total", "kv_engine_ops_total", "kv_engine_retries_total",
	"kv_engine_llx_fails_total", "kv_engine_scx_fails_total",
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
