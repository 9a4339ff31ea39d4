// Command mctserved serves one colorful database over the wire protocol.
//
// Store selection: -dir opens (or creates) a durable database; without it
// the server boots an in-memory catalog datagen store of -catalog-scale
// items — the same store the benchmarks and the e2e harness use.
//
// Orchestration: -addr 127.0.0.1:0 binds an ephemeral port and -addr-file
// writes the bound address once listening, so harnesses can start the
// server and connect without racing. SIGTERM/SIGINT trigger a graceful
// drain: stop accepting, finish every request already read, notify
// clients, then exit 0. -obs-dump writes the final instrument snapshot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/experiment"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7633", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file once listening")
		debugAddr    = flag.String("debug-addr", "", "optional second listener for the HTTP debug endpoint (metrics/slowlog/trace/plancache/health/pprof)")
		dir          = flag.String("dir", "", "serve a durable database in this directory (created if missing)")
		colors       = flag.String("colors", "red,green", "colors for a newly created durable database")
		catalogScale = flag.Int("catalog-scale", 1000, "items in the in-memory catalog store (ignored with -dir)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "how long a drain may wait for in-flight requests")
		obsDump      = flag.String("obs-dump", "", "write the final instrument snapshot to this file on exit")
		name         = flag.String("name", "mctserved", "server name announced in the handshake")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("mctserved: ")

	db, err := openStore(*dir, *colors, *catalogScale)
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	if *dir != "" {
		r := db.Recovery()
		log.Printf("recovered %s in %d ms: checkpoint epoch %d (loaded: %v), %d segments, %d records, %d changes, torn tail: %v",
			*dir, r.Elapsed.Milliseconds(), r.CheckpointEpoch, r.CheckpointLoaded, r.SegmentsReplayed, r.RecordsReplayed, r.ChangesReplayed, r.TornTail)
	}

	if *debugAddr != "" {
		dbg, err := db.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatalf("debug endpoint: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s/debug/metrics", dbg.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	if *addrFile != "" {
		// Write to a temp name and rename so watchers never read a partial
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("addr-file: %v", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Fatalf("addr-file: %v", err)
		}
	}

	srv := server.New(db, server.Options{
		Name:         *name,
		DrainTimeout: *drainTimeout,
		Logf:         log.Printf,
	})

	stopSig := make(chan os.Signal, 2)
	signal.Notify(stopSig, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-stopSig
		log.Printf("received %v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	// Serve blocks until the drain completes (every connection handler has
	// exited), so everything after it runs with the server quiesced.
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	if err := db.Close(); err != nil {
		log.Printf("close store: %v", err)
	}
	if *obsDump != "" {
		if err := dumpObs(*obsDump); err != nil {
			log.Printf("obs-dump: %v", err)
		}
	}
	log.Printf("exit")
}

// openStore opens the durable store or builds the in-memory catalog.
func openStore(dir, colors string, catalogScale int) (*colorful.DB, error) {
	if dir == "" {
		return experiment.NewCatalogDB(catalogScale)
	}
	var cs []colorful.Color
	for _, c := range strings.Split(colors, ",") {
		if c = strings.TrimSpace(c); c != "" {
			cs = append(cs, colorful.Color(c))
		}
	}
	return colorful.Open(dir, cs...)
}

func dumpObs(path string) error {
	b, err := json.MarshalIndent(obs.Default.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
