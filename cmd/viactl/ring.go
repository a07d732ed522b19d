package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// loadRingMap reads and validates a shard-map JSON file (the format
// GET /v1/ring/map serves — ring.Map with epoch, vnodes, and shards).
func loadRingMap(path string) (*ring.Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ring.DecodeMap(data)
}

// routeCmd runs the stateless ring router: it serves the shard map to
// bootstrapping clients, answers every choose/report with a 307 to the
// pair's owning shard, fans relay registration out to every shard, and
// runs the periodic cross-shard §4.6 budget aggregation — the only piece
// of fleet-global state in the sharded control plane.
func routeCmd(args []string) int {
	fs := flag.NewFlagSet("viactl route", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8079", "HTTP listen address")
	mapFile := fs.String("ring-map", "", "shard-map JSON file (required; same format GET /v1/ring/map serves)")
	budgetEvery := fs.Duration("budget-every", 2*time.Second, "cross-shard budget aggregation period (0 = disabled)")
	fs.Parse(args) //vialint:ignore errwrap ExitOnError flag sets terminate on a parse failure
	if *mapFile == "" {
		fmt.Fprintln(os.Stderr, "viactl route: -ring-map is required")
		return 2
	}
	m, err := loadRingMap(*mapFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viactl route: %v\n", err)
		return 1
	}

	reg := obs.NewRegistry()
	router := ring.NewRouter(m, reg)
	if *budgetEvery > 0 {
		router.StartBudgetLoop(*budgetEvery)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       5 * time.Second,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		router.Close()
		hs.Close() //vialint:ignore errwrap final teardown; the listener is going away regardless
	}()

	fmt.Printf("via ring router listening on %s (epoch=%d shards=%d budget-every=%s)\n",
		*addr, m.MapEpoch, len(m.Shards), *budgetEvery)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	return 0
}
