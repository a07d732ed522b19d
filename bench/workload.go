package main

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Inputs are a pure function of -seed: the same seed gives the same call
// streams and packet contents, and the program under test receives only
// these generated inputs.

const (
	numPairs  = 4096 // (src, dst) group pairs, as in BENCH_2
	zipfSkew  = 1.1  // pair popularity: hot pairs repeat, which a decision cache or per-pair lock would exploit
	numRelays = 16   // relay population the bounce candidates are drawn from
	perCall   = 5    // bounce candidates per call, beside the direct path
)

// callStream is a client's sequence of n calls, each named by its pair's
// popularity rank. Popularity is Zipf, but stratified: rank k appears
// round(n·P(k)) times (largest remainders making up the total) and the seed
// only shuffles the order. Every seed then gives the same multiset of ranks,
// so the work a stream asks for does not vary from seed to seed the way n
// independent draws would. Which ring shard owns a hot pair is likewise the
// same for every seed (pairGroups does not depend on it).
func callStream(seed uint64, label string, n int) []int32 {
	rng := stats.NewRNG(seed).Split(label)
	z := stats.NewZipf(rng, numPairs, zipfSkew)
	out := make([]int32, 0, n)
	type remainder struct {
		rank int32
		frac float64
	}
	rest := make([]remainder, numPairs)
	for k := 0; k < numPairs; k++ {
		want := float64(n) * z.Prob(k)
		whole := int(want)
		for i := 0; i < whole; i++ {
			out = append(out, int32(k))
		}
		rest[k] = remainder{int32(k), want - float64(whole)}
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].frac > rest[j].frac })
	for _, r := range rest[:n-len(out)] {
		out = append(out, r.rank)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pairGroups maps a pair rank to its (src, dst) group ids.
func pairGroups(pair int32) (src, dst int32) {
	src = 1000 + 2*pair
	return src, src + 1
}

// pairCandidates builds every pair's candidate set once: the direct path
// and perCall bounce relays that differ from pair to pair but overlap, so
// the predictor's per-relay tomography has shared segments to work with.
func pairCandidates() [][]netsim.Option {
	cands := make([][]netsim.Option, numPairs)
	for p := range cands {
		opts := make([]netsim.Option, 0, perCall+1)
		opts = append(opts, netsim.DirectOption())
		for k := 0; k < perCall; k++ {
			// 3k mod 16 is distinct for k < 5, so the five relays are.
			opts = append(opts, netsim.BounceOption(netsim.RelayID(1+(p+3*k)%numRelays)))
		}
		cands[p] = opts
	}
	return cands
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// measure is the quality surface reports are drawn from: a pure function
// of (pair, option), so every repetition and every WAL replay sees the
// same world. Relayed paths beat the direct one for most pairs by a
// pair-dependent margin, so Via has a benefit to find.
func measure(pair int32, opt netsim.Option) quality.Metrics {
	key := uint64(uint32(pair))<<32 | uint64(uint32(opt.R1))<<8 | uint64(uint8(opt.Kind))
	u := float64(mix64(key)>>11) / (1 << 53)
	if opt.IsRelayed() {
		return quality.Metrics{RTTMs: 80 + 80*u, LossRate: 0.005 + 0.01*u, JitterMs: 4 + 6*u}
	}
	return quality.Metrics{RTTMs: 120 + 160*u, LossRate: 0.01 + 0.04*u, JitterMs: 8 + 14*u}
}

func optionIn(opt netsim.Option, cands []netsim.Option) bool {
	for _, c := range cands {
		if c == opt {
			return true
		}
	}
	return false
}

// Media packets.

const (
	mediaSessions = 256
	payloadLen    = 160 // 20 ms of G.711: VoIP packets are small, so per-packet cost is the whole story
	tsOffset      = 16  // payload bytes [16,24) carry the send time, which the integrity check skips
)

// sessionToken derives a session's mobility token; odd sessions carry one
// (wire v3), even sessions do not (wire v2), so both header paths run.
func sessionToken(seed, session uint64) transport.Token {
	var t transport.Token
	if session%2 == 1 {
		binary.BigEndian.PutUint64(t[0:8], mix64(seed^session))
		binary.BigEndian.PutUint64(t[8:16], mix64(seed^session<<1)|1)
	}
	return t
}

// fillPayload writes packet (session, seq)'s payload into buf[:payloadLen]:
// session, seq, a slot for the send time, then filler bytes derived from
// (seed, session, seq).
func fillPayload(buf []byte, seed, session, seq uint64) {
	binary.BigEndian.PutUint64(buf[0:8], session)
	binary.BigEndian.PutUint64(buf[8:16], seq)
	x := mix64(seed ^ session<<20 ^ seq)
	for i := tsOffset + 8; i < payloadLen; i += 8 {
		x = mix64(x)
		binary.BigEndian.PutUint64(buf[i:i+8], x)
	}
}

// payloadIntact reports whether a delivered payload is the one fillPayload
// wrote for the (session, seq) it names.
func payloadIntact(got []byte, seed uint64) bool {
	if len(got) != payloadLen {
		return false
	}
	var want [payloadLen]byte
	fillPayload(want[:], seed, binary.BigEndian.Uint64(got[0:8]), binary.BigEndian.Uint64(got[8:16]))
	copy(want[tsOffset:tsOffset+8], got[tsOffset:tsOffset+8])
	return bytes.Equal(got, want[:])
}
