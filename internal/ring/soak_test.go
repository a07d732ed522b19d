package ring

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestSoakShardChaosZeroDrops is the PR-gate shard-chaos soak: a zipf
// call load over a 3-shard fleet while shard 0's primary is killed, its
// standby promoted, and the ring grown by one shard — asserting everything
// chaos can break: zero dropped decisions, the fault plan's effects,
// per-shard WAL replay identity, and the final budget merge installed on
// every shard.
func TestSoakShardChaosZeroDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("shard-chaos soak is a multi-second e2e; skipped in -short")
	}
	reg := obs.NewRegistry()
	rep, err := RunSoak(SoakConfig{
		Seed:       42,
		Shards:     3,
		Calls:      2400,
		Pairs:      64,
		Goroutines: 4,
		Relays:     5,
		Metrics:    reg,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops != 0 {
		t.Errorf("%d of %d decisions dropped; the retry/failover path must ride out shard churn", rep.Drops, rep.Calls)
	}
	if rep.FaultErrors != 0 {
		t.Errorf("%d fault-plan steps failed", rep.FaultErrors)
	}
	if rep.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", rep.Promotions)
	}
	if rep.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", rep.Rebalances)
	}
	if rep.MapEpoch != 2 {
		t.Errorf("final map epoch = %d, want 2 (one AddShard)", rep.MapEpoch)
	}
	if len(rep.ShardReports) != 4 {
		t.Fatalf("shard reports = %d, want 4 (3 initial + 1 added)", len(rep.ShardReports))
	}
	for _, sr := range rep.ShardReports {
		if !sr.ReplayIdentical {
			t.Errorf("shard %d: WAL replay did not reproduce live state byte-for-byte (lsn %d)", sr.ID, sr.AppliedLSN)
		}
	}
	// The final explicit AggregateBudget round (no timer: RunSoak stops the
	// budget loop first) must have reached the whole post-chaos fleet: every
	// shard answered, at least one was warm enough to merge, and every
	// answering shard installed a finite threshold. How close that threshold
	// is to the exact quantile is TestMergeThresholdAccuracy's question, on
	// fixed samples; here the samples depend on wall-clock scheduling.
	fm := rep.FinalMerge
	if fm.Shards != len(rep.ShardReports) || fm.Warmed == 0 || fm.Installed != fm.Shards {
		t.Errorf("final budget merge: %d of %d shards answered, %d warmed, %d installed; want all answering and installing",
			fm.Shards, len(rep.ShardReports), fm.Warmed, fm.Installed)
	}
	if math.IsNaN(rep.MergedThreshold) || math.IsInf(rep.MergedThreshold, 0) {
		t.Errorf("final merged threshold = %v, want finite", rep.MergedThreshold)
	}
	// The chaos must actually have exercised the ring machinery.
	snap := reg.Snapshot()
	if rep.Redirects == 0 && snap[`via_ring_redirects_total{shard="3"}`] == 0 {
		t.Log("note: no epoch-stale redirect observed this run (clients refreshed before touching moved pairs)")
	}
}
