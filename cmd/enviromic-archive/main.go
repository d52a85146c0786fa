// Command enviromic-archive opens a basestation chunk archive (an
// on-disk directory written by `enviromic-retrieve -archive` or by this
// binary's HTTP ingest endpoint) and either lists its contents or serves
// the concurrent HTTP query API.
//
// Examples:
//
//	enviromic-archive -dir /data/arch -ls
//	enviromic-archive -dir /data/arch -http localhost:8080
//	enviromic-archive -dir /data/a1 -http :8081 -station s1 -peers s2=localhost:8082,s3=localhost:8083
//	curl 'http://localhost:8080/query?from=10s&to=60s&origins=3,4'
//	curl 'http://localhost:8080/files/1/gaps?tolerance=250ms'
//	curl -o file1.wav 'http://localhost:8080/files/1/wav'
//
// The -http listener also serves the store's op counters in Prometheus
// text format at /metrics and the standard pprof endpoints at
// /debug/pprof. SIGTERM or SIGINT stops the server gracefully: in-flight
// requests finish, federation loops stop, and the store closes, writing
// its index snapshots so the next open replays nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"enviromic/internal/archive"
	"enviromic/internal/federation"
	"enviromic/internal/telemetry"
)

// HTTP server limits. They are fixed, not flags: they bound how long a
// slow or idle client can hold a connection, not how long a request may
// run (a large /wav or /repl/delta body streams for as long as it needs).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 30 * time.Second
)

func main() {
	var (
		dir      = flag.String("dir", "", "archive directory (required)")
		shards   = flag.Int("shards", 8, "shard count when creating a fresh archive")
		httpAddr = flag.String("http", "", "serve the query API on this address (e.g. localhost:8080; :0 picks a free port)")
		ls       = flag.Bool("ls", false, "list archived files and exit")
		tol      = flag.Duration("gap-tolerance", 500*time.Millisecond, "default gap tolerance for listings and /gaps")
		cacheMB  = flag.Int64("cache-mb", 16, "reassembly cache budget in MiB (negative disables)")
		syncOn   = flag.Bool("sync-ingest", false, "fsync segments after every ingest group commit")
		compact  = flag.Bool("compact", false, "compact segments (reclaim superseded bytes) and exit")
		ckptMB   = flag.Int64("checkpoint-mb", 8, "bytes appended between index snapshot checkpoints, in MiB (negative disables)")
		autoMB   = flag.Int64("auto-compact-mb", 64, "per-shard superseded bytes triggering auto compaction, in MiB (negative disables)")
		accLog   = flag.Bool("access-log", false, "log one structured line per HTTP request (slog, stderr)")

		peersSpec = flag.String("peers", "",
			"federate with these stations: comma-separated [name=]host:port list; requires -http")
		station = flag.String("station", "", "this station's name in the federation (default: the -http listen address)")
		replF   = flag.Int("replication", 0, "replication factor R: each stripe lives on R stations (0 = full mesh)")
		replInt = flag.Duration("repl-interval", 2*time.Second, "anti-entropy pull interval when caught up")
		probeI  = flag.Duration("probe-interval", time.Second, "peer health probe interval")
		fanoutT = flag.Duration("fanout-timeout", 2*time.Second, "per-peer timeout for federated fan-out and probes")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "enviromic-archive: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	mb := func(v int64) int64 {
		if v > 0 {
			return v << 20
		}
		return v
	}
	reg := telemetry.NewRegistry()
	store, err := archive.Open(*dir, archive.Options{
		Shards:           *shards,
		GapTolerance:     *tol,
		CacheBytes:       mb(*cacheMB),
		SyncOnIngest:     *syncOn,
		CheckpointBytes:  mb(*ckptMB),
		AutoCompactBytes: mb(*autoMB),
		Telemetry:        reg,
	})
	exitIf(err)

	st := store.Stats()
	fmt.Printf("archive %s: %d files, %d chunks, %d payload bytes in %d shards",
		*dir, st.Files, st.Chunks, st.Bytes, st.Shards)
	if st.RecoveredBytes > 0 {
		fmt.Printf(" (recovered: dropped %d torn bytes)", st.RecoveredBytes)
	}
	fmt.Println()

	if *ls {
		list(store)
	}
	if *compact {
		rep, err := store.Compact()
		exitIf(err)
		fmt.Printf("compacted %d shards: kept %d chunks, reclaimed %d bytes (%d segment bytes now)\n",
			rep.Shards, rep.ChunksKept, rep.ReclaimedBytes, rep.SegmentBytesNow)
	}
	if *httpAddr == "" {
		exitIf(store.Close())
		return
	}

	// The query API is wrapped in per-endpoint metrics (served at
	// /metrics in Prometheus text format) and, with -access-log, one
	// structured log line per request.
	var logger *slog.Logger
	if *accLog {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	ln, err := net.Listen("tcp", *httpAddr)
	exitIf(err)
	var api http.Handler
	var fed *federation.Station
	endpointOf := archive.EndpointOf
	if *peersSpec != "" {
		// Federated: this station answers reads from the whole
		// federation, replicates from its ring sources, and keeps serving
		// local writes (/ingest) and replication reads (/repl/*).
		peers, err := federation.ParsePeers(*peersSpec)
		exitIf(err)
		self := *station
		if self == "" {
			self = ln.Addr().String()
		}
		fed, err = federation.New(store, federation.Config{
			Self:              self,
			Peers:             peers,
			ReplicationFactor: *replF,
			ReplInterval:      *replInt,
			ProbeInterval:     *probeI,
			FanoutTimeout:     *fanoutT,
			CursorPath:        filepath.Join(*dir, "federation-cursors.json"),
			Telemetry:         reg,
		})
		exitIf(err)
		fed.Start()
		api = fed.Handler()
		endpointOf = federation.EndpointOf
		fmt.Printf("federation: station %q, %d peers, sources %v\n",
			self, len(peers), fed.ReplicationSources())
	} else {
		api = archive.NewHandler(store)
	}
	api = telemetry.Middleware(reg, endpointOf, api)
	http.Handle("/", telemetry.AccessLog(logger, api))
	http.Handle("/metrics", telemetry.Handler(reg))
	srv := &http.Server{ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("serving on http://%s (endpoints: /files /query /stats /metrics /debug/pprof)\n", ln.Addr())

	select {
	case err = <-served:
	case sig := <-stop:
		fmt.Printf("%v: shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		err = srv.Shutdown(ctx)
		cancel()
	}
	if fed != nil {
		fed.Close()
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	exitIf(err)
}

// exitIf reports err and exits with status 1 when err is non-nil.
func exitIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "enviromic-archive: %v\n", err)
		os.Exit(1)
	}
}

// list prints the /files view as a table.
func list(store *archive.Store) {
	files := store.Files()
	if len(files) == 0 {
		fmt.Println("(archive is empty)")
		return
	}
	fmt.Printf("%6s %12s %12s %8s %10s %6s  %s\n",
		"file", "start", "end", "chunks", "bytes", "gaps", "origins")
	for _, fi := range files {
		fmt.Printf("%6d %12v %12v %8d %10d %6d  %v\n",
			fi.ID, fi.Start, fi.End, fi.Chunks, fi.Bytes, fi.Gaps, fi.Origins)
	}
}
