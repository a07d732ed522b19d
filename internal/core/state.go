package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/history"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// Full-state persistence for Via — the controller's snapshot payload.
//
// The call history alone is NOT enough for crash recovery with
// bit-identical behavior: the
// budget counters, the per-pair top-k caches, the UCB arm memory (which
// decays and reseeds — both history-dependent and order-dependent), the
// benefit percentile estimator, and the ε-draw RNG position all influence
// Choose. SaveState captures every one of those; LoadState restores them
// and deterministically rebuilds the predictor from the restored history,
// so a controller restored from a snapshot (plus WAL replay of the tail)
// continues the exact decision stream of an uninterrupted run.
//
// The config is deliberately NOT serialized: the operator's config is the
// source of truth, and restoring state under a changed config (say, a new
// Budget) must honor the new config, not resurrect the old one.

const viaStateVersion = 1

// viaArmRec is one UCB arm in exported, ordered form.
type viaArmRec struct {
	Opt   netsim.Option
	Count float64
	Sum   float64
}

// viaPairRec is one pair's decision state.
type viaPairRec struct {
	A, B      int32
	TopkEpoch int
	Topk      []Candidate
	Cands     []netsim.Option
	UCBT      float64
	UCBMaxQ   float64
	Arms      []viaArmRec
}

// viaRelayUseRec is one relay's budget-usage count. A slice (not a map)
// so the gob bytes are reproducible — gob serializes maps in iteration
// order, which would make two captures of identical state differ.
type viaRelayUseRec struct {
	Relay netsim.RelayID
	Count int64
}

// viaRepairArmRec is one repair scheme's cost state in exported form.
type viaRepairArmRec struct {
	Scheme string
	Count  float64
	Sum    float64
}

// viaRepairPairRec is one pair's repair-bandit state, arms sorted by
// scheme name for reproducible bytes.
type viaRepairPairRec struct {
	A, B        int32
	T           float64
	OverheadSec float64
	TotalSec    float64
	Arms        []viaRepairArmRec
}

// viaState is the full serialized form.
//
// The repair fields were added after version 1 shipped, without a bump:
// gob tolerates absent fields, so a pre-repair snapshot decodes with zero
// RepairRNG/RepairPairs and LoadState falls back to a fresh repair split —
// exactly the state a pre-repair run had, so replay stays bit-identical.
type viaState struct {
	Version     int
	History     []byte // history.Capture.Encode stream, embedded whole
	CurEpoch    int
	Pairs       []viaPairRec
	HasBenefit  bool
	Benefit     stats.P2State
	Relayed     int64
	Total       int64
	RelayedSec  float64
	TotalSec    float64
	RelayUse    []viaRelayUseRec // sorted by relay ID
	RelayCalls  int64
	RNG         stats.RNGState
	RepairRNG   stats.RNGState     // zero (empty PCG) = repair never used
	RepairPairs []viaRepairPairRec // sorted by (A, B)
	// Fleet-shared §4.6 gate, added after version 1 shipped (same
	// versioning-by-omission rule as the repair fields): pre-ring snapshots
	// decode with SharedBenefit false, which is exactly their state.
	SharedBenefit   bool
	SharedBenefitN  int64
	SharedBenefitTh float64
}

// SaveState writes the strategy's complete decision state. Safe to call
// concurrently with Choose/Observe; the captured state is a consistent
// point-in-time cut.
func (v *Via) SaveState(w io.Writer) error {
	encode, err := v.CaptureState()
	if err != nil {
		return err
	}
	return encode(w)
}

// CaptureState copies the strategy's complete decision state and returns
// the encoder that writes it, byte for byte, as SaveState would have at
// the moment of the copy. The copy is the part a caller must order
// against Choose/Observe; the encoder shares nothing with the live
// strategy, so a caller runs it after releasing whatever lock orders its
// updates.
func (v *Via) CaptureState() (func(io.Writer) error, error) {
	hist := v.store.Capture()

	v.mu.Lock()
	st := viaState{
		Version:         viaStateVersion,
		CurEpoch:        v.curEpoch,
		HasBenefit:      v.benefit != nil,
		SharedBenefit:   v.sharedBenefit,
		SharedBenefitN:  v.sharedBenefitN,
		SharedBenefitTh: v.sharedBenefitTh,
		Relayed:         v.relayed,
		Total:           v.total,
		RelayedSec:      v.relayedSec,
		TotalSec:        v.totalSec,
		RelayUse:        make([]viaRelayUseRec, 0, len(v.relayUse)),
		RelayCalls:      v.relayCalls,
	}
	if v.benefit != nil {
		st.Benefit = v.benefit.State()
	}
	for r, n := range v.relayUse {
		st.RelayUse = append(st.RelayUse, viaRelayUseRec{Relay: r, Count: n})
	}
	rngState, err := v.rng.State()
	if err != nil {
		v.mu.Unlock()
		return nil, fmt.Errorf("core: save rng: %w", err)
	}
	st.RNG = rngState
	repairRNGState, err := v.repairRNG.State()
	if err != nil {
		v.mu.Unlock()
		return nil, fmt.Errorf("core: save repair rng: %w", err)
	}
	st.RepairRNG = repairRNGState
	for gp, b := range v.repairPairs {
		rec := viaRepairPairRec{
			A:           gp.a,
			B:           gp.b,
			T:           b.t,
			OverheadSec: b.overheadSec,
			TotalSec:    b.totalSec,
		}
		for s, a := range b.arms {
			rec.Arms = append(rec.Arms, viaRepairArmRec{Scheme: s, Count: a.count, Sum: a.sum})
		}
		st.RepairPairs = append(st.RepairPairs, rec)
	}
	// Every pair's slices are cut from one backing array per field: a few
	// large allocations under the lock instead of three per pair.
	var nTopk, nCands, nArms int
	for _, ps := range v.pairs {
		nTopk, nCands, nArms = nTopk+len(ps.topk), nCands+len(ps.cands), nArms+len(ps.ucb.arms)
	}
	topk := make([]Candidate, nTopk)
	cands := make([]netsim.Option, nCands)
	arms := make([]viaArmRec, nArms)
	st.Pairs = make([]viaPairRec, 0, len(v.pairs))
	for gp, ps := range v.pairs {
		nt, nc, na := len(ps.topk), len(ps.cands), len(ps.ucb.arms)
		rec := viaPairRec{
			A:         gp.a,
			B:         gp.b,
			TopkEpoch: ps.topkEpoch,
			Topk:      topk[:nt:nt],
			Cands:     cands[:nc:nc],
			UCBT:      ps.ucb.t,
			UCBMaxQ:   ps.ucb.maxQ,
			Arms:      arms[:na:na],
		}
		topk, cands, arms = topk[nt:], cands[nc:], arms[na:]
		copy(rec.Topk, ps.topk)
		copy(rec.Cands, ps.cands)
		// Arms are kept sorted by optionLess, so the byte stream is
		// reproducible without re-sorting.
		for i, a := range ps.ucb.arms {
			rec.Arms[i] = viaArmRec{Opt: a.opt, Count: a.count, Sum: a.sum}
		}
		st.Pairs = append(st.Pairs, rec)
	}
	v.mu.Unlock()

	return func(w io.Writer) error {
		var buf bytes.Buffer
		if err := hist.Encode(&buf); err != nil {
			return fmt.Errorf("core: save history: %w", err)
		}
		st.History = buf.Bytes()
		sort.Slice(st.RelayUse, func(i, j int) bool { return st.RelayUse[i].Relay < st.RelayUse[j].Relay })
		for _, rec := range st.RepairPairs {
			sort.Slice(rec.Arms, func(i, j int) bool { return rec.Arms[i].Scheme < rec.Arms[j].Scheme })
		}
		sort.Slice(st.Pairs, func(i, j int) bool {
			if st.Pairs[i].A != st.Pairs[j].A {
				return st.Pairs[i].A < st.Pairs[j].A
			}
			return st.Pairs[i].B < st.Pairs[j].B
		})
		sort.Slice(st.RepairPairs, func(i, j int) bool {
			if st.RepairPairs[i].A != st.RepairPairs[j].A {
				return st.RepairPairs[i].A < st.RepairPairs[j].A
			}
			return st.RepairPairs[i].B < st.RepairPairs[j].B
		})
		if err := gob.NewEncoder(w).Encode(&st); err != nil {
			return fmt.Errorf("core: encode state: %w", err)
		}
		return nil
	}, nil
}

// LoadState restores a SaveState capture into a freshly constructed Via
// (same config). The predictor is rebuilt deterministically from the
// restored history — it is a pure function of (history, epoch, backbone,
// predictor config), so it is not serialized.
func (v *Via) LoadState(r io.Reader) error {
	var st viaState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: decode state: %w", err)
	}
	if st.Version != viaStateVersion {
		return fmt.Errorf("core: state version %d, want %d", st.Version, viaStateVersion)
	}

	store := history.NewStore()
	if len(st.History) > 0 {
		if err := store.Load(bytes.NewReader(st.History)); err != nil {
			return fmt.Errorf("core: load history: %w", err)
		}
	}
	rng, err := stats.RestoreRNG(st.RNG)
	if err != nil {
		return fmt.Errorf("core: restore rng: %w", err)
	}
	var benefit *stats.P2
	if st.HasBenefit {
		benefit, err = stats.RestoreP2(st.Benefit)
		if err != nil {
			return fmt.Errorf("core: restore benefit estimator: %w", err)
		}
	}
	// Pre-repair snapshots carry no repair RNG: fall back to the same
	// fresh split NewVia would have made, which is exactly the state a
	// pre-repair run was in.
	repairRNG := stats.NewRNG(v.cfg.Seed).Split("via-repair")
	if len(st.RepairRNG.PCG) > 0 {
		repairRNG, err = stats.RestoreRNG(st.RepairRNG)
		if err != nil {
			return fmt.Errorf("core: restore repair rng: %w", err)
		}
	}
	var repairPairs map[groupPair]*RepairBandit
	if len(st.RepairPairs) > 0 {
		repairPairs = make(map[groupPair]*RepairBandit, len(st.RepairPairs))
		for _, rec := range st.RepairPairs {
			b := NewRepairBandit(v.cfg.Epsilon, v.cfg.UCBCoef, v.cfg.RepairOverheadBudget)
			b.t = rec.T
			b.overheadSec = rec.OverheadSec
			b.totalSec = rec.TotalSec
			for _, a := range rec.Arms {
				b.arms[a.Scheme] = &repairArm{count: a.Count, sum: a.Sum}
			}
			repairPairs[groupPair{rec.A, rec.B}] = b
		}
	}
	pairs := make(map[groupPair]*pairState, len(st.Pairs))
	for _, rec := range st.Pairs {
		ucb := newUCBState()
		ucb.t = rec.UCBT
		ucb.maxQ = rec.UCBMaxQ
		ucb.arms = make([]ucbArm, 0, len(rec.Arms))
		for _, a := range rec.Arms {
			ucb.arms = append(ucb.arms, ucbArm{opt: a.Opt, count: a.Count, sum: a.Sum})
		}
		// Snapshots write arms sorted, but the invariant is load-bearing
		// (find binary-searches), so don't trust the bytes.
		sort.Slice(ucb.arms, func(i, j int) bool { return optionLess(ucb.arms[i].opt, ucb.arms[j].opt) })
		pairs[groupPair{rec.A, rec.B}] = &pairState{
			topkEpoch: rec.TopkEpoch,
			topk:      rec.Topk,
			cands:     rec.Cands,
			ucb:       ucb,
		}
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	v.store = store
	v.rng = rng
	v.repairRNG = repairRNG
	v.repairPairs = repairPairs
	v.benefit = benefit
	v.sharedBenefit = st.SharedBenefit
	v.sharedBenefitN = st.SharedBenefitN
	v.sharedBenefitTh = st.SharedBenefitTh
	v.curEpoch = st.CurEpoch
	v.pairs = pairs
	v.relayed = st.Relayed
	v.total = st.Total
	v.relayedSec = st.RelayedSec
	v.totalSec = st.TotalSec
	v.relayCalls = st.RelayCalls
	v.relayUse = make(map[netsim.RelayID]int64, len(st.RelayUse))
	for _, ru := range st.RelayUse {
		v.relayUse[ru.Relay] = ru.Count
	}
	// Rebuild the predictor exactly as ensureEpoch would have at this epoch.
	// The decay/reseed side effects of ensureEpoch are NOT re-run: their
	// results are already baked into the restored arms and top-k caches.
	if st.CurEpoch >= 0 {
		v.pred = BuildPredictor(v.store, st.CurEpoch-1, v.bb, v.cfg.Predictor)
	} else {
		v.pred = nil
	}
	return nil
}
