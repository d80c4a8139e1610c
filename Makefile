# CI entry points. `make ci` is the gate a change must pass: formatting
# and static checks, a full build, the whole module under the race
# detector (with the short corpus — the service layer runs concurrent
# sessions, so every package rides along), the full tier-1 test suite,
# the end-to-end benchmark's own module, and a one-iteration benchmark
# smoke so the hot path cannot silently stop compiling or regress to
# pathological cost.

GO ?= go
SOAK_DURATION ?= 30s

.PHONY: ci fmt vet build race test perfbench-check bench-smoke bench-ab trace-smoke fuzz-smoke fuzz-native strategy-smoke layout-smoke stream-smoke matrix-smoke soak-smoke results loc

ci: fmt vet build race test perfbench-check bench-smoke trace-smoke fuzz-smoke fuzz-native strategy-smoke layout-smoke stream-smoke matrix-smoke

# Every Go file gofmt-clean: lists the files gofmt would change and
# fails when there are any.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Whole module under the race detector. -short keeps the corpus small
# (of the committed outputs, only Table 1 is rerun under -short), so this
# is minutes, not hours, while still covering the concurrent layers:
# sched pool, serve sessions, experiment sweeps.
race:
	$(GO) test -race -short ./...

test:
	$(GO) test ./...

# The end-to-end benchmark (perfbench/, its own module) calls the
# scheduler, experiment, service and perfmon APIs: vet and test it so a
# change to them cannot break the benchmark while the rest stays green.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# 30 seconds (SOAK_DURATION) of concurrent clients hammering an
# in-process cobrad under the race detector: sustained submissions,
# ledger hits, mid-run cancellations and backpressure, with the
# terminal-state accounting audited at the end. See EXPERIMENTS.md.
soak-smoke:
	COBRAD_SOAK=$(SOAK_DURATION) $(GO) test -race -run TestSoak -v ./internal/serve/

# One cheap iteration of the core throughput benchmark and of the memory-
# system, run-loop, session-build and ledger-hit layer benchmarks: a
# compile+run smoke for the simulator hot path, not a measurement.
bench-smoke:
	$(GO) test -bench 'BenchmarkSimulatorThroughput$$' -benchtime 1x -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkDomainAccess|BenchmarkRunAll|BenchmarkSessionBuild|BenchmarkPoolLedgerHit' -benchtime 1x -benchmem -run '^$$' ./internal/mem/ ./internal/machine/ ./internal/serve/ ./internal/sched/

# End-to-end A/B of revision REF against the working tree: PAIRS pairs
# of BENCHMARK.json's command on seeds SEEDS, SEEDS+1, ... for WORKLOAD
# (default: every workload), alternating which side runs first, with REF
# checked out as a git worktree under .bench_build/ and removed after.
# Prints each end-to-end metric's quartiles, wins, median ratio, bound and
# verdict; exits non-zero, with no verdict, if any run was incorrect or
# failed operations. Not part of ci: ten pairs take many minutes.
PAIRS ?= 10
SEEDS ?= 1
bench-ab:
	@test -n "$(REF)" || { echo "usage: make bench-ab REF=<rev> [WORKLOAD=<name>] [PAIRS=10] [SEEDS=<first seed>]"; exit 2; }
	$(GO) run ./cmd/bench-ab -ref '$(REF)' -workload '$(WORKLOAD)' -pairs $(PAIRS) -seed $(SEEDS)

# Export a cycle-domain Chrome trace of the phase-change run and
# structurally validate it — the observability layer's end-to-end gate.
trace-smoke:
	$(GO) run ./cmd/cobra-run -workload phased -strategy adaptive \
		-trace results/trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck results/trace-smoke.json
	rm -f results/trace-smoke.json

# Differential fuzz gate: 1000 fixed-seed random programs, each run
# unpatched and under every live-patch mode with bit-identical final
# state demanded, MESI invariants checked online, and the control-loop
# fault-injection battery on every fifth seed. Fixed seeds keep the gate
# deterministic; a failure prints the seed to replay.
fuzz-smoke:
	$(GO) run ./cmd/cobra-verify -seed 1 -n 1000 -fault-every 5

# Native Go fuzzing of the input boundaries, a fixed budget per target on
# top of its seed corpus under testdata/fuzz/: the cobrad spec decoder
# (decode, Normalize, Validate, Key must never panic, and a valid spec
# must keep its key through a re-encode), cobra-run's -topology,
# -affinity and -migrate parser (never panics; a spec that validates has
# a key), the ledger entry decoder (never panics; only a well-formed
# entry for its key is a hit, anything else is quarantined and then a
# plain miss), the event bus's resume and drop accounting (seqs strictly
# increase past the resume point, every skipped event is counted, and
# delivered plus dropped covers the stream), decision-log replay (exactly
# the violations LegalTransition predicts), and the instruction encoding
# (a word pair either fails to decode or re-encodes to itself; Append and
# Patch store exactly the given instruction or refuse it and leave the
# image as it was). A crasher is written to the target's testdata/fuzz/
# directory, where plain `go test` replays it.
fuzz-native:
	$(GO) test -run '^$$' -fuzz '^FuzzSpecKey$$' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioFlags$$' -fuzztime 20s ./cmd/cobra-run/
	$(GO) test -run '^$$' -fuzz '^FuzzLedgerGet$$' -fuzztime 20s ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzBusResume$$' -fuzztime 20s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzDecisionReplay$$' -fuzztime 20s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzInstrWords$$' -fuzztime 20s ./internal/ia64/

# Live-telemetry gate: a phased adaptive session runs against an
# in-process cobrad with its SSE stream followed to completion under the
# race detector; the streamed decision transitions must replay to
# byte-equality with the final decisions artifact, the streamed window
# snapshots must equal the metrics artifact's window series, and every
# event must carry strictly monotone ids and finite numbers
# (tracecheck-style structural validation of the event JSON). Then 400
# ledger-hit sessions from 8 concurrent clients must each appear on
# /eventsz's bus as a legal walk starting at queued.
stream-smoke:
	$(GO) test -race -count=1 -run 'TestStreamEquivalence|TestStreamResume|TestEventszStream|TestEventszSessionOrder' ./internal/serve/

# Strategy-engine matrix: the whole optimizer package, uncached. Every
# engine (prefetch, multiversion, causal, layout) drives the phased
# re-adaptation workload with the decision-log lifecycle audited for
# legality, the multiversion engine required to switch a resident
# variant, and the causal engine required to pair its what-if prediction
# with the realized IPC. The digest test pins cycles, Stats, decision log
# and non-patch trace of 13 (workload, engine) cells in
# results/digests.json and demands one patch trace instant per decision.
strategy-smoke:
	$(GO) test -count=1 ./internal/cobra/

# Layout-engine gate: the full runtime (monitor threads, USB drain,
# trigger, BOLT-style block reordering) on a hand-assembled branchy
# kernel across repeated launches — at least one reordered copy must
# deploy with block evidence, be judged through the relocated loop key,
# keep exactly one resident copy in the code cache, and preserve the
# kernel's architectural result. In internal/cobra the pattern matches
# exactly these two runs (TestLayoutDeploysOnBranchyKernel and
# TestLayoutJudgesAndKeepsDispatchStable).
layout-smoke:
	$(GO) test -count=1 -run 'TestLayout' ./internal/cobra/

# Scenario-matrix gate: 3 topologies x 3 placement policies x 3
# irregular workloads, every cell running the adaptive COBRA loop
# through the scheduler under the race detector with the decision-log
# lifecycle audited, all metrics required finite, and each cell's cycles,
# memory counters, COBRA counters and decision log pinned in
# results/digests.json; then one
# asymmetric-NUMA pointer-chase cell end to end through cobra-run with
# its cycle-domain trace structurally validated.
matrix-smoke:
	$(GO) test -race -count=1 -run 'TestScenarioMatrix' .
	$(GO) run ./cmd/cobra-run -workload pointerchase -machine numa \
		-topology 1:64,3:64 -placement interleave -strategy adaptive \
		-threads 4 -trace results/matrix-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck results/matrix-smoke.json
	rm -f results/matrix-smoke.json

# Regenerate every committed output under results/ through the tests that
# check it: with REGEN_GOLDEN=1 each writes what it would compare. First
# the root package: TestResults runs each command that prints a results/
# file, then the phased golden trace, the scenario-matrix digests and the
# ledger keys. Then the engine digests in internal/cobra. The two run in
# sequence because both packages write results/digests.json, and with
# -count=1 because a cached test result would skip its write. A moved
# engine or matrix measurement then fails TestModelVersion until
# model_version is bumped.
results:
	REGEN_GOLDEN=1 $(GO) test -count=1 -run '^(TestResults|TestGoldenPhasedTrace|TestScenarioMatrix|TestLedgerKeys)$$' .
	REGEN_GOLDEN=1 $(GO) test -count=1 -run '^TestEngineDigests$$' ./internal/cobra/

# Non-test Go lines outside perfbench/ (the benchmark's own module): the
# program's size, tracked from change to change.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l
