// Command viactl runs and operates the Via controller: the central service
// that ingests per-call measurement reports from clients and answers
// relay-selection queries using prediction-guided exploration (§3.1,
// Figure 7).
//
// Usage:
//
//	viactl [serve] [flags]     run a controller (the default command)
//	viactl route -ring-map F   run the stateless ring router over a shard map
//	viactl snapshot -ctrl URL  force a durable snapshot on a running controller
//	viactl promote  -ctrl URL  promote a standby to primary
//	viactl wal-dump -dir DIR   print a WAL directory's snapshots and records
//
// Bare flags (viactl -addr :8080) keep their historical meaning: they run
// the serve command.
//
// serve runs in-memory by default; -wal DIR makes it durable (every
// choose/report hits a write-ahead log before the strategy, snapshots land
// in DIR/snapshots, and a restart replays its way back to the exact same
// decision state). Adding -standby URL instead tails the primary at URL as
// a warm replica that refuses decision traffic until promoted — by hand
// (viactl promote) or automatically when the lease lapses (-auto-promote).
// -max-concurrent enables admission control: excess choose/report load is
// shed with 503 + Retry-After instead of queueing without bound.
// -repair-schemes none,nack,red,fec-4 turns on per-pair repair-scheme
// selection: choose requests that offer repair candidates get a scheme
// picked by a bandit over (path, repair) arms, with -repair-budget capping
// the redundant-bandwidth fraction (§4.6 applied to redundancy).
//
// A sharded control plane runs one serve per shard with -ring-map FILE
// -ring-shard N (the server then redirects pairs it does not own to their
// owner, 307 + the map epoch) plus one route process fronting the fleet.
// The shard map file is the JSON GET /v1/ring/map serves; see DESIGN.md
// §16 for the ring topology, epoch protocol, and failure matrix.
//
// Relays register with POST /v1/relays/register; clients call POST
// /v1/choose and POST /v1/report. GET /v1/stats reports counters, GET
// /v1/livez and /v1/readyz split liveness from readiness, and GET /metrics
// serves the full registry in Prometheus text format — see the README
// "Observability" section for every exported series.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	cmd := "serve"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "serve":
		return serveCmd(args)
	case "route":
		return routeCmd(args)
	case "snapshot", "promote":
		return adminCmd(cmd, args)
	case "wal-dump":
		return walDumpCmd(args)
	case "help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "viactl: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  viactl [serve] [flags]     run a controller (default command; serve -h for flags)
  viactl route -ring-map F   run the stateless ring router over a shard map
  viactl snapshot -ctrl URL  force a durable snapshot on a running controller
  viactl promote  -ctrl URL  promote a standby to primary
  viactl wal-dump -dir DIR   print a WAL directory's snapshots and records
`)
}

// serveCmd runs the controller until SIGINT/SIGTERM.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("viactl serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	metric := fs.String("metric", "rtt", "metric to optimize: rtt, loss, jitter")
	budget := fs.Float64("budget", 1.0, "max fraction of calls relayed (1 = unconstrained)")
	repairSchemes := fs.String("repair-schemes", "",
		"comma-separated repair arms offered to the per-pair bandit, e.g. none,nack,red,fec-4 (empty = repair selection off)")
	repairBudget := fs.Float64("repair-budget", 0,
		"cap on the talk-time fraction of redundant repair bandwidth per pair (0 = default 0.25, >= 1 = uncapped)")
	timescale := fs.Float64("timescale", 0, "virtual hours per wall second (0 = real time)")
	seed := fs.Uint64("seed", 1, "strategy seed")
	relayTTL := fs.Duration("relay-ttl", 0, "expire relays whose heartbeat lapsed this long (0 = never)")
	walDir := fs.String("wal", "", "durability: write-ahead log + snapshot directory (restart recovers exact state)")
	walSync := fs.Duration("wal-sync", 0, "WAL group-commit window (0 = default, negative = fsync every append)")
	snapEvery := fs.Int("snapshot-every", 0, "snapshot after this many applied records (0 = default 4096, negative = never)")
	standbyOf := fs.String("standby", "", "run as warm standby of this primary controller URL (requires -wal)")
	ringMapFile := fs.String("ring-map", "", "ring: shard-map JSON file; serve as one shard of this ring (requires -ring-shard)")
	ringShard := fs.Int("ring-shard", -1, "ring: this server's shard ID in the -ring-map file")
	lease := fs.Duration("lease", 0, "standby: primary silence tolerated before the lease lapses (0 = 2s)")
	autoPromote := fs.Bool("auto-promote", false, "standby: self-promote to primary when the lease lapses")
	maxConcurrent := fs.Int("max-concurrent", 0, "admission: concurrent choose/report requests per endpoint (0 = unlimited)")
	maxWaiting := fs.Int("max-waiting", 0, "admission: queue depth behind the concurrency slots (0 = 4x max-concurrent)")
	queueTimeout := fs.Duration("queue-timeout", 0, "admission: longest a queued request waits before being shed (0 = 100ms)")
	fs.Parse(args) //vialint:ignore errwrap ExitOnError flag sets terminate on a parse failure

	var m quality.Metric
	switch *metric {
	case "rtt":
		m = quality.RTT
	case "loss":
		m = quality.Loss
	case "jitter":
		m = quality.Jitter
	default:
		log.Fatalf("unknown metric %q (want rtt, loss, or jitter)", *metric)
	}
	if *standbyOf != "" && *walDir == "" {
		log.Fatal("-standby requires -wal (the standby replicates the primary's WAL into its own)")
	}
	if (*ringMapFile == "") != (*ringShard < 0) {
		log.Fatal("-ring-map and -ring-shard go together (a shard needs both the map and its own ID)")
	}

	reg := obs.NewRegistry()
	cfg := core.DefaultViaConfig(m)
	cfg.Budget = *budget
	cfg.Seed = *seed
	cfg.Metrics = reg
	if *repairSchemes != "" {
		cfg.RepairSchemes = strings.Split(*repairSchemes, ",")
		cfg.RepairOverheadBudget = *repairBudget
	}
	ccfg := controller.Config{
		Strategy:        core.NewVia(cfg, nil),
		TimeScale:       *timescale,
		RelayTTL:        *relayTTL,
		Metrics:         reg,
		WALDir:          *walDir,
		WALSyncInterval: *walSync,
		SnapshotEvery:   *snapEvery,
		StandbyOf:       *standbyOf,
		LeaseTimeout:    *lease,
		AutoPromote:     *autoPromote,
		Admission: controller.AdmissionConfig{
			MaxConcurrent: *maxConcurrent,
			MaxWaiting:    *maxWaiting,
			QueueTimeout:  *queueTimeout,
		},
	}
	var srv *controller.Server
	if *walDir != "" {
		opened, err := controller.Open(ccfg)
		if err != nil {
			log.Fatalf("open durable controller: %v", err)
		}
		srv = opened
	} else {
		srv = controller.New(ccfg)
	}

	handler := srv.Handler()
	role := "standalone"
	if *ringMapFile != "" {
		m, err := loadRingMap(*ringMapFile)
		if err != nil {
			log.Fatalf("ring map: %v", err)
		}
		if _, ok := m.ShardByID(*ringShard); !ok {
			log.Fatalf("ring map %s has no shard %d", *ringMapFile, *ringShard)
		}
		// The gate answers 307 for pairs other shards own and accepts
		// newer-epoch map installs on POST /v1/ring/map.
		handler = ring.NewGate(*ringShard, handler, m, reg)
		role = fmt.Sprintf("ring shard %d (epoch %d, %d shards)", *ringShard, m.MapEpoch, len(m.Shards))
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Misbehaving or stalled clients must not pin handler goroutines:
		// every control RPC is a small JSON body, so generous-but-finite
		// read bounds cost nothing in the happy path.
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       5 * time.Second,
	}

	// On SIGINT/SIGTERM: stop admitting requests, drain in-flight
	// choose/report calls (so no measurement is lost), flush the WAL, then
	// close the listener.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
		hs.Close() //vialint:ignore errwrap final teardown; the listener is going away regardless
	}()

	mode := "in-memory"
	if *walDir != "" {
		mode = "durable wal=" + *walDir
	}
	fmt.Printf("via controller listening on %s (metric=%s budget=%.2f role=%s state=%s mode=%s ring=%s)\n",
		*addr, m, *budget, srv.Role(), srv.State(), mode, role)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	return 0
}

// adminCmd drives the one-shot operator endpoints: snapshot (POST
// /v1/admin/snapshot) and promote (POST /v1/promote).
func adminCmd(kind string, args []string) int {
	fs := flag.NewFlagSet("viactl "+kind, flag.ExitOnError)
	ctrl := fs.String("ctrl", "http://127.0.0.1:8080", "controller base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	fs.Parse(args) //vialint:ignore errwrap ExitOnError flag sets terminate on a parse failure

	paths := map[string]string{
		"snapshot": "/v1/admin/snapshot",
		"promote":  "/v1/promote",
	}
	cl := &http.Client{Timeout: *timeout}
	resp, err := cl.Post(strings.TrimRight(*ctrl, "/")+paths[kind], "application/json", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viactl %s: %v\n", kind, err)
		return 1
	}
	defer resp.Body.Close() //vialint:ignore errwrap response body fully read below; close is bookkeeping
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		fmt.Fprintf(os.Stderr, "viactl %s: read response: %v\n", kind, err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "viactl %s: %s: %s\n", kind, resp.Status, strings.TrimSpace(string(body)))
		return 1
	}
	switch kind {
	case "snapshot":
		var sr transport.SnapshotResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			fmt.Fprintf(os.Stderr, "viactl snapshot: decode response: %v\n", err)
			return 1
		}
		fmt.Printf("snapshot taken: lsn=%d bytes=%d\n", sr.LSN, sr.Bytes)
	case "promote":
		var pr transport.PromoteResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			fmt.Fprintf(os.Stderr, "viactl promote: decode response: %v\n", err)
			return 1
		}
		fmt.Printf("promoted: role=%s term=%d\n", pr.Role, pr.Term)
	}
	return 0
}

// walDumpCmd prints a WAL directory offline: snapshots first, then every
// record with its LSN and a human-readable rendering of the payload. It
// only reads — a torn tail is reported, not repaired.
func walDumpCmd(args []string) int {
	fs := flag.NewFlagSet("viactl wal-dump", flag.ExitOnError)
	dir := fs.String("dir", "", "WAL directory (as given to viactl serve -wal)")
	from := fs.Uint64("from", 0, "first LSN to print (0 = everything on disk)")
	fs.Parse(args) //vialint:ignore errwrap ExitOnError flag sets terminate on a parse failure
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "viactl wal-dump: -dir is required")
		return 2
	}

	snaps, err := wal.ListSnapshots(filepath.Join(*dir, "snapshots"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "viactl wal-dump: %v\n", err)
		return 1
	}
	for _, s := range snaps {
		size := int64(-1)
		if fi, statErr := os.Stat(s.Path); statErr == nil {
			size = fi.Size()
		}
		fmt.Printf("snapshot  lsn=%d bytes=%d %s\n", s.LSN, size, s.Path)
	}

	segs, err := filepath.Glob(filepath.Join(*dir, "*.wal"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "viactl wal-dump: %v\n", err)
		return 1
	}
	sort.Strings(segs)
	if len(segs) == 0 && len(snaps) == 0 {
		fmt.Fprintf(os.Stderr, "viactl wal-dump: no segments or snapshots in %s\n", *dir)
		return 1
	}
	records := 0
	for _, seg := range segs {
		base, perr := strconv.ParseUint(strings.TrimSuffix(filepath.Base(seg), ".wal"), 16, 64)
		if perr != nil {
			continue // stray .wal file whose name is not an LSN; not ours
		}
		f, oerr := os.Open(seg)
		if oerr != nil {
			fmt.Fprintf(os.Stderr, "viactl wal-dump: %v\n", oerr)
			return 1
		}
		torn := dumpSegment(f, base, *from, &records)
		f.Close() //vialint:ignore errwrap read-only file
		if torn {
			break // everything past a torn frame is unreadable by construction
		}
	}
	fmt.Printf("%d records\n", records)
	return 0
}

// dumpSegment prints one segment's records, starting the LSN count at the
// segment's base, through one reused frame buffer. Reports whether it hit
// a torn/corrupt frame.
func dumpSegment(f *os.File, lsn, from uint64, n *int) bool {
	r := bufio.NewReader(f)
	var buf []byte
	for {
		rec, next, err := wal.ReadFrameBuf(r, buf)
		buf = next
		if errors.Is(err, io.EOF) {
			return false
		}
		if err != nil {
			fmt.Printf("%8d  (torn tail: %v)\n", lsn, err)
			return true
		}
		if lsn >= from {
			fmt.Printf("%8d  %s\n", lsn, controller.DescribeRecord(rec))
			*n++
		}
		lsn++
	}
}
