package ring

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Router is the thin stateless front of a sharded control plane. It
// serves the current map so clients can bootstrap and go shard-direct
// (NewClient), fans relay registrations out to all shards, and sums their
// stats and health. It serves no pair: every choose or report sent to it,
// by POST or on a control stream, gets the gate's 307 naming the owning
// shard, from a Gate whose ID no shard has.
//
// The router holds no decision state. Its one cross-shard responsibility
// is the §4.6 budget percentile, the single global datum in the design:
// AggregateBudget pulls each shard's digest, inverts the sample-weighted
// mixture of their CDF sketches, and pushes the fleet threshold back to
// every shard.
type Router struct {
	gate *Gate // the router's map, and its answer to every pair
	http *http.Client
	reg  *obs.Registry

	proxyErrs *obs.Counter
	merges    *obs.Counter

	streams *controller.StreamServer // accepts the gate's control streams

	mu       sync.Mutex
	stopCh   chan struct{} // guarded by mu
	loopDone chan struct{} // guarded by mu
}

// noShard is the router gate's shard ID. Map refuses negative IDs, so the
// router owns no pair and its gate answers every message itself.
const noShard = -1

// NewRouter builds a router over the given starting map. reg may be nil
// to skip metrics.
func NewRouter(m *Map, reg *obs.Registry) *Router {
	r := &Router{
		// Fan-out and poll legs are LAN/WAN control RPCs like the client's
		// own; a short hard timeout keeps a dead shard from pinning the
		// router.
		http: &http.Client{Timeout: 5 * time.Second},
		reg:  reg,
	}
	r.streams = controller.NewStreamServer(servesNoPair, nil)
	r.gate = NewGate(noShard, r.streams, m, nil)
	if reg != nil {
		r.proxyErrs = reg.Counter(obs.L("via_ring_proxy_errors_total", "role", "router"))
		r.merges = reg.Counter(obs.L("via_ring_budget_merges_total", "role", "router"))
		reg.GaugeFunc(obs.L("via_ring_router_map_epoch", "role", "router"), func() float64 {
			return float64(r.gate.Current().MapEpoch)
		})
	}
	return r
}

// servesNoPair is the router's stream message function. The gate's check
// answers every message before it, so it runs for none.
func servesNoPair(_ transport.Op, _, _ int32, _ []byte, _ <-chan struct{}, out []byte) (int, []byte) {
	return http.StatusInternalServerError, append(out, "ring: the router serves no pair"...)
}

// Install adopts a newer-epoch map (Gate.Install's monotone rule: it is
// the router gate's map).
func (r *Router) Install(m *Map) error { return r.gate.Install(m) }

// Handler returns the router's HTTP surface. Choose, report, control
// streams and the map go to the router's gate.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET "+transport.ControlPath, r.gate)
	mux.Handle("POST /v1/choose", r.gate)
	mux.Handle("POST /v1/report", r.gate)
	mux.Handle("GET /v1/ring/map", r.gate)
	mux.HandleFunc("POST /v1/relays/register", r.fanoutRegister)
	mux.HandleFunc("GET /v1/relays", r.proxyFirst)
	mux.HandleFunc("GET /v1/stats", r.sumStats)
	mux.HandleFunc("GET /v1/health", r.health)
	mux.HandleFunc("GET /metrics", r.metrics)
	return mux
}

// fanoutRegister mirrors a relay registration to every shard — the relay
// directory is replicated, not partitioned, because any shard may pick
// any relay for its pairs.
func (r *Router) fanoutRegister(w http.ResponseWriter, req *http.Request) {
	body, ok := readProxied(w, req)
	if !ok {
		return
	}
	m := r.gate.Current()
	var firstErr error
	okCount := 0
	for _, s := range m.Shards {
		var sent bool
		for _, base := range shardTargets(s) {
			resp, err := r.http.Post(base+req.URL.Path, "application/json", bytes.NewReader(body))
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			io.Copy(io.Discard, resp.Body) //vialint:ignore errwrap drain for connection reuse; only the status matters
			resp.Body.Close()              //vialint:ignore errwrap drained body close has no recovery
			if resp.StatusCode == http.StatusOK {
				sent = true
				break
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("ring: shard %d register returned %s", s.ID, resp.Status)
			}
		}
		if sent {
			okCount++
		}
	}
	if okCount == 0 {
		if r.proxyErrs != nil {
			r.proxyErrs.Inc()
		}
		http.Error(w, "ring: registration reached no shard: "+firstErr.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, transport.RegisterRelayResponse{OK: true})
}

// proxyFirst forwards a read to the first shard that answers 200 — used
// for the relay directory, which fanoutRegister keeps replicated.
func (r *Router) proxyFirst(w http.ResponseWriter, req *http.Request) {
	m := r.gate.Current()
	var lastErr error
	for _, s := range m.Shards {
		for _, base := range shardTargets(s) {
			resp, err := r.http.Get(base + req.URL.Path)
			if err != nil {
				lastErr = err
				continue
			}
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body) //vialint:ignore errwrap drain for connection reuse on a non-200
				resp.Body.Close()              //vialint:ignore errwrap error-path close; the status is the failure
				lastErr = fmt.Errorf("ring: shard %d returned %s", s.ID, resp.Status)
				continue
			}
			relayResponse(w, resp)
			return
		}
	}
	http.Error(w, "ring: no shard reachable: "+lastErr.Error(), http.StatusBadGateway)
}

// sumStats merges every reachable shard's counters.
func (r *Router) sumStats(w http.ResponseWriter, _ *http.Request) {
	m := r.gate.Current()
	var sum transport.StatsResponse
	for _, s := range m.Shards {
		var st transport.StatsResponse
		if r.getJSON(s, "/v1/stats", &st) == nil {
			sum.Relays = max(sum.Relays, st.Relays)
			sum.Reports += st.Reports
			sum.Chooses += st.Chooses
			sum.Panics += st.Panics
		}
	}
	writeJSON(w, sum)
}

// health answers OK when every shard has a reachable primary or standby.
func (r *Router) health(w http.ResponseWriter, _ *http.Request) {
	m := r.gate.Current()
	ok := true
	relays := 0
	for _, s := range m.Shards {
		var h transport.HealthResponse
		if r.getJSON(s, "/v1/health", &h) != nil {
			ok = false
			continue
		}
		relays = max(relays, h.Relays)
	}
	writeJSON(w, transport.HealthResponse{OK: ok, Relays: relays})
}

// metrics serves the router's own registry (the shards serve their own).
func (r *Router) metrics(w http.ResponseWriter, _ *http.Request) {
	if r.reg == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.reg.WriteText(w) //vialint:ignore errwrap best-effort HTTP response write; the scraper observes any failure
}

// BudgetAggregate is one round of cross-shard §4.6 aggregation.
type BudgetAggregate struct {
	// Shards is how many shards answered the digest poll.
	Shards int `json:"shards"`
	// Warmed is how many of those had n >= 20 (a usable local threshold)
	// and a sketch to merge.
	Warmed int `json:"warmed"`
	// N is the fleet-wide benefit sample count (all answering shards).
	N int64 `json:"n"`
	// Threshold is the fleet-merged benefit percentile: the inverse of the
	// N-weighted mixture of warmed shards' CDF sketches; only meaningful
	// when Warmed > 0.
	Threshold float64 `json:"threshold"`
	// Installed is how many shards accepted the merged threshold.
	Installed int `json:"installed"`
}

// AggregateBudget runs one digest/merge/install round: poll every shard's
// local benefit percentile, merge the warmed ones, and push the fleet
// threshold back to all shards. The merge inverts the sample-weighted
// mixture of the shards' P² CDF sketches — the estimate an unsharded
// controller's single estimator would produce over the union stream.
// Averaging per-shard quantiles instead would be badly biased under zipf
// load, where each shard's distribution is dominated by its own hottest
// pairs; the mixture inverse keeps the global mass (e.g. the pile of
// zero-benefit samples from unwarmed pairs) in view.
func (r *Router) AggregateBudget() (BudgetAggregate, error) {
	m := r.gate.Current()
	var agg BudgetAggregate
	var warmed []transport.BudgetDigestResponse
	for _, s := range m.Shards {
		var d transport.BudgetDigestResponse
		if err := r.getJSON(s, "/v1/budget/digest", &d); err != nil || !d.OK {
			continue
		}
		agg.Shards++
		agg.N += d.N
		if d.N >= 20 && d.P > 0 {
			agg.Warmed++
			warmed = append(warmed, d)
		}
	}
	if agg.Shards == 0 {
		return agg, fmt.Errorf("ring: no shard answered the budget digest poll")
	}
	if agg.Warmed == 0 {
		return agg, nil // nothing to merge yet; shards keep their local gates
	}
	agg.Threshold = mergeThreshold(warmed)
	for _, s := range m.Shards {
		if r.postMerged(s, agg.N, agg.Threshold) == nil {
			agg.Installed++
		}
	}
	if r.merges != nil {
		r.merges.Inc()
	}
	return agg, nil
}

// StartBudgetLoop aggregates every interval until Stop. One loop per
// router; a second call replaces the first.
func (r *Router) StartBudgetLoop(interval time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopLocked()
	stop := make(chan struct{})
	done := make(chan struct{})
	r.stopCh, r.loopDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.AggregateBudget() //vialint:ignore errwrap periodic best-effort merge; a missed round is retried next tick
			}
		}
	}()
}

// Stop halts the budget loop (no-op if not running).
func (r *Router) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopLocked()
}

// Close stops the budget loop and severs the router's control streams,
// which closing its http.Server does not reach. Idempotent.
func (r *Router) Close() {
	r.Stop()
	r.streams.Close()
}

func (r *Router) stopLocked() {
	if r.stopCh != nil {
		close(r.stopCh)
		<-r.loopDone
		r.stopCh, r.loopDone = nil, nil
	}
}

// mergeThreshold computes the fleet benefit percentile from warmed shard
// digests, each carrying a P² marker sketch: it inverts the N-weighted
// mixture CDF at the target quantile by bisection.
func mergeThreshold(warmed []transport.BudgetDigestResponse) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	var total float64
	for _, d := range warmed {
		lo = math.Min(lo, d.Q[0])
		hi = math.Max(hi, d.Q[4])
		total += float64(d.N)
	}
	if !(lo < hi) {
		return lo // the whole fleet's mass sits at one point
	}
	target := warmed[0].P * total
	for i := 0; i < 64; i++ {
		mid := lo + (hi-lo)/2
		var below float64
		for _, d := range warmed {
			below += float64(d.N) * sketchCDF(d, mid)
		}
		if below < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// sketchCDF evaluates one shard's piecewise-linear CDF at x, interpolating
// between the five P² markers: marker i sits at height Q[i] with 1-based
// rank Pos[i] out of Pos[4] samples. Equal-height markers (a point mass,
// e.g. many zero-benefit samples) read as a step, taking the upper rank so
// the CDF stays right-continuous.
func sketchCDF(d transport.BudgetDigestResponse, x float64) float64 {
	if x < d.Q[0] {
		return 0
	}
	if x >= d.Q[4] {
		return 1
	}
	n := d.Pos[4]
	if n <= 1 {
		return 1
	}
	rank := func(i int) float64 { return (d.Pos[i] - 1) / (n - 1) }
	for i := 3; i >= 0; i-- {
		if x >= d.Q[i] {
			if d.Q[i+1] <= d.Q[i] {
				return rank(i + 1)
			}
			return rank(i) + (rank(i+1)-rank(i))*(x-d.Q[i])/(d.Q[i+1]-d.Q[i])
		}
	}
	return 0
}

// getJSON fetches path from a shard (primary, then standby) into out.
func (r *Router) getJSON(s Shard, path string, out any) error {
	var lastErr error
	for _, base := range shardTargets(s) {
		resp, err := r.http.Get(base + path)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //vialint:ignore errwrap drain for connection reuse on a non-200
			resp.Body.Close()              //vialint:ignore errwrap error-path close; the status is the failure
			lastErr = fmt.Errorf("ring: shard %d %s returned %s", s.ID, path, resp.Status)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close() //vialint:ignore errwrap body fully consumed by the decoder
		if err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// postMerged pushes the merged threshold to a shard (primary, standby).
func (r *Router) postMerged(s Shard, n int64, threshold float64) error {
	body, err := json.Marshal(transport.BudgetMergedRequest{N: n, Threshold: threshold})
	if err != nil {
		return err
	}
	var lastErr error
	for _, base := range shardTargets(s) {
		resp, err := r.http.Post(base+"/v1/budget/merged", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		io.Copy(io.Discard, resp.Body) //vialint:ignore errwrap drain for connection reuse; only the status matters
		resp.Body.Close()              //vialint:ignore errwrap drained body close has no recovery
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("ring: shard %d merged-install returned %s", s.ID, resp.Status)
	}
	return lastErr
}

// readProxied reads a request body the router will send on, under the same
// bound as every control-plane body (transport.MaxBodyBytes, 413 beyond).
// The buffer is deliberately not released to the pool: net/http may still
// be writing an outgoing request body after Post has returned, so bytes
// that back one are never reused.
func readProxied(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	buf := transport.ReadRequest(w, req)
	if buf == nil {
		return nil, false
	}
	return buf.B, true
}

// shardTargets lists a shard's endpoints in preference order.
func shardTargets(s Shard) []string {
	t := make([]string, 0, 2)
	if s.URL != "" {
		t = append(t, s.URL)
	}
	if s.Standby != "" {
		t = append(t, s.Standby)
	}
	return t
}

// relayResponse copies a proxied shard response to the client verbatim.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close() //vialint:ignore errwrap proxied body close has no recovery
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //vialint:ignore errwrap best-effort proxy copy; the client observes any truncation
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //vialint:ignore errwrap best-effort HTTP response write; the client observes any failure
}
