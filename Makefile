# Verification entry points. `make verify` is the tier-1 gate: build,
# vet, full tests, and the race detector (the testbed is heavily
# concurrent — controller HTTP handlers, relay forwarders, shapers, and
# fault injection all share state).

GO ?= go

# Fuzz session length (CI uses a ~20s smoke; longer locally finds more).
FUZZTIME ?= 30s

# Coverage gate: `make cover` fails if total statement coverage over the
# internal packages drops below this floor (baseline at the gate's
# introduction: 77.7%).
COVER_FLOOR ?= 75.0

# Extra vialint flags (CI passes -github for inline PR annotations;
# -timings prints load + per-analyzer wall time to stderr).
VIALINT_FLAGS ?=

.PHONY: verify build vet fmt-check mod-check lint lint-fast test race short fuzz chaos chaos-ha chaos-repair soak loss-sweep bench-vet cover

verify: build vet fmt-check lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tree that holds Go source must be gofmt-clean (analyzer fixtures
# under testdata/ are exempt: some are malformed on purpose).
fmt-check:
	@out=$$(gofmt -l cmd internal via bench examples | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

# go.mod must already be tidy: no requirement nothing imports. Needs Go
# 1.23+ (`go mod tidy -diff`), so it is a CI step rather than part of
# `make verify`, which also runs on 1.22.
mod-check:
	$(GO) mod tidy -diff

# Project-specific invariants (cmd/vialint): dettaint (no wall clock /
# global rand / map-order output in deterministic code, directly or
# through any chain of calls), lockcheck (`// guarded by <mu>`
# annotations), errwrap (%w + justified error discards), ctxtimeout
# (HTTP clients/dialers carry
# deadlines), deadstore, noalloc (`//via:noalloc` hot paths verified by
# escape analysis), walcompat (`//via:walrecord` schema evolution vs
# committed goldens), metricshygiene (metric naming/labels/registration),
# deadexport (no exported identifier under internal/ that only tests
# reach; whole-program, so it reports only when the patterns cover the
# whole module — lint-fast sees part of it and leaves it silent). See
# DESIGN.md §9 and §14. The go-list result is cached under .cache/ keyed
# on a source stamp, so a no-change rerun skips the load phase.
lint:
	$(GO) run ./cmd/vialint -listcache .cache/vialint-list.json $(VIALINT_FLAGS) ./...

# Changed-packages lint: only packages with Go files touched since HEAD
# (staged, unstaged, or untracked). Dependencies still load for facts, so
# interprocedural analyzers stay sound on the narrowed pattern set.
lint-fast:
	@changed=$$( (git diff --name-only HEAD -- '*.go'; git ls-files --others --exclude-standard -- '*.go') | grep -v '/testdata/' | sort -u ); \
	pkgs=$$(for f in $$changed; do [ -f "$$f" ] && dirname "$$f"; done | sort -u | sed 's|^|./|'); \
	if [ -z "$$pkgs" ]; then echo "lint-fast: no changed Go files"; \
	else echo "lint-fast: $$pkgs"; $(GO) run ./cmd/vialint -listcache .cache/vialint-list.json $(VIALINT_FLAGS) $$pkgs; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast subset: skips the slow end-to-end deployment and chaos runs.
short:
	$(GO) test -short ./...

# Short fuzz sessions over the byte-level decoders fed by crash-recovery
# and the wire: the media frame, the WAL frame and the open-time segment
# scan (held to the whole-buffer frame decoder), the loss-repair payloads
# (FEC parity packets and NACK requests), and — differentially against
# encoding/json — the hand-written JSON codecs of the WAL records' wire
# types, the hot WAL records and the ring's pair peek; the control stream's binary
# bodies (held to decode(encode(x)) == x) and its frame readers, server and
# client side; and the relay's per-datagram
# step, over arbitrary datagrams from IPv4, 4-in-6, IPv6 and zero sources.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFrameUnmarshal -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzFrameV3Unmarshal -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzPathChallengeParse -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=NONE -fuzz=FuzzWALRecover -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=NONE -fuzz=FuzzFECDecode -fuzztime=$(FUZZTIME) ./internal/rtp/
	$(GO) test -run=NONE -fuzz=FuzzNACKParse -fuzztime=$(FUZZTIME) ./internal/rtp/
	$(GO) test -run=NONE -fuzz=FuzzControlCodec -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzControlBinary -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzWALRecordCodec -fuzztime=$(FUZZTIME) ./internal/controller/
	$(GO) test -run=NONE -fuzz=FuzzPeekPair -fuzztime=$(FUZZTIME) ./internal/ring/
	$(GO) test -run=NONE -fuzz=FuzzControlStream -fuzztime=$(FUZZTIME) ./internal/controller/
	$(GO) test -run=NONE -fuzz=FuzzRelayForward -fuzztime=$(FUZZTIME) ./internal/relay/

# Coverage with a floor: writes coverage.out (CI archives it) and fails
# below COVER_FLOOR percent total statement coverage.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# Smoke-scale fault-injection benchmark.
chaos:
	$(GO) run ./cmd/viabench -quick chaos

# Durable-controller variant: same scenario plus an abrupt controller
# crash and a WAL-recovery restart mid-run.
chaos-ha:
	$(GO) run ./cmd/viabench -quick -waldir $$(mktemp -d) chaos

# Chaos with burst loss on every media segment and NACK repair on every
# call: the repair counters in the report must move.
chaos-repair:
	$(GO) run ./cmd/viabench -quick -repair nack chaos

# Shard-chaos soak: zipf load over a live multi-shard consistent-hash
# ring while shard 0's primary is killed, its warm standby promoted, and
# the ring grown by one shard mid-run (DESIGN.md §16). Gates on zero
# dropped decisions, the fault plan completing, and bit-identical
# per-shard WAL replay; writes the machine-readable report and the final
# metrics snapshot for CI artifact upload. SOAK_CALLS=24000 is the
# nightly 10× scale.
SOAK_CALLS ?= 2400
soak:
	$(GO) run ./cmd/viabench -soak-calls $(SOAK_CALLS) \
		-soakout soak-report.json -metricsout soak-metrics.json soak

# Loss-repair sweep: residual loss / MOS / overhead per (regime, scheme)
# plus the per-regime repair bandit's learned choices.
loss-sweep:
	$(GO) run ./cmd/viabench losssweep

# The call-path benchmark (bench/, BENCHMARK.json) is a module of its own,
# so `make verify` neither builds nor tests it: run this after any change
# to an API it uses (internal/wal, controller, ring, relay, client).
bench-vet:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
