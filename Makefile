GO ?= go

.PHONY: check build vet fmt test race bench bench-compare chaos fuzz-smoke alloc recovery-smoke scaling-smoke egress-smoke tasklet-smoke rescale-smoke perfbench

# check is the full gate: build, vet, formatting, unit tests, the
# race-detector run over the packages with real concurrency, the
# short seeded chaos suite, the decoder fuzz smokes, and the recovery,
# scaling, egress, tasklet, and rescale smokes.
check: build vet fmt test race chaos fuzz-smoke recovery-smoke scaling-smoke egress-smoke tasklet-smoke rescale-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# race covers the shared log and the runtime core, where appenders,
# blocking readers, trims, and fault injection interleave.
race:
	$(GO) test -race ./internal/sharedlog/... ./internal/core/...

# chaos runs the short seeded chaos suite under the race detector:
# NEXMark queries under deterministic fault schedules (task kills,
# zombies, shard crashes, partitions) with exactly-once verification.
chaos:
	$(GO) test -race -short -run 'TestChaos|TestGenPlan' ./internal/chaos/ -timeout 300s

# fuzz-smoke runs a short randomized burst on every decoder fuzz
# target on top of its checked-in seed corpus (the seeds alone also run
# under `make test`): the WAL frame reader, the shared log's cut
# payload codec, checkpoint-store WAL recovery, and the runtime's
# marker-checkpoint, aligned-snapshot, and egress-frontier decoders —
# every byte format that recovery feeds with potentially corrupt input.
FUZZTIME ?= 3s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCutPayload -fuzztime $(FUZZTIME) ./internal/sharedlog/
	$(GO) test -run '^$$' -fuzz FuzzRecover -fuzztime $(FUZZTIME) ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMarkerCheckpoint -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeAlignedSnapshot -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrontier -fuzztime $(FUZZTIME) ./internal/core/

# alloc runs the hot-path allocation gates explicitly (they also run as
# part of `make test`): the write-side batch encoder and the read-side
# warm cursor NextBatch (0 allocs/record). Must run without -race —
# race instrumentation allocates.
alloc:
	$(GO) test -run 'Alloc' ./internal/sharedlog/ ./internal/core/ -v

# recovery-smoke runs one depth point of the -exp recovery experiment
# (streaming read plane: batched replay must beat per-record replay on
# round trips), as a fast sibling of the chaos gate.
recovery-smoke:
	$(GO) run ./cmd/impeller-bench -exp recovery -depths 500 -scale 0.02

# scaling-smoke runs a two-point -exp scaling curve (sharded ordering
# plane: 4 ordering shards must beat 1 on aggregate append throughput),
# as a fast sibling of the chaos gate. The full curve with the committed
# numbers is results/scaling.csv (see EXPERIMENTS.md).
scaling-smoke:
	$(GO) run ./cmd/impeller-bench -exp scaling -shards 1,4 -clients 96 -duration 600ms

# egress-smoke runs a fast -exp egress point (transactional sink
# delivery: delivered-record latency per protocol, then chaos-verified
# recovery from hard sink kills with the replacement resuming from the
# persisted ack frontier). The full run with the committed numbers is
# results/egress.csv (see EXPERIMENTS.md).
egress-smoke:
	$(GO) run ./cmd/impeller-bench -exp egress -duration 800ms -scale 0.05

# tasklet-smoke runs the same deterministic NEXMark pipeline on the
# goroutine and tasklet engines and fails on any output divergence
# (oracle-verified, value-exact), as a fast sibling of the chaos gate.
# The tail-latency comparison with the committed numbers is
# results/tasklet.md (see EXPERIMENTS.md).
tasklet-smoke:
	$(GO) run ./cmd/impeller-bench -exp tasklet-smoke

# rescale-smoke gates elastic rescaling: the oracle-verified chaos
# cells (live splits/merges with the rescaler killed mid-transition,
# exactly-once checked at the consumer, both engines), then a scripted
# mid-run split through the public API via a short -exp rescale run.
# The recorded step-load run is results/rescale.md (see EXPERIMENTS.md).
rescale-smoke:
	$(GO) test -race -run 'TestChaosRescale' ./internal/chaos/ -timeout 300s
	$(GO) run ./cmd/impeller-bench -exp rescale -duration 2s -scale 0.05

# perfbench runs the repository benchmark (BENCHMARK.json, perfbench/)
# once per workload in W at one seed; TRACE=1 adds the per-layer
# counters, recovery timings and hop spans, TRACE=0 gives the untraced
# end-to-end metrics. Each workload takes ~35 s, so it is not part of
# check. Example: make perfbench W=q12-kill SEED=3 TRACE=0
W ?= q1-durable q12-aligned q12-kill
SEED ?= 1
TRACE ?= 1
perfbench:
	@for w in $(W); do \
		echo "== $$w seed=$(SEED) trace=$(TRACE)"; \
		python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds 20 --trace $(TRACE) || exit 1; \
	done

# bench runs the sharedlog micro-benchmarks (no -race; see results/).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sharedlog/

# bench-compare reruns the sharedlog benchmarks and prints per-benchmark
# deltas against the committed baseline (results/bench_baseline.txt).
# Refresh the baseline by redirecting `make bench` output there on a
# quiet machine.
bench-compare:
	@$(GO) test -run '^$$' -bench . -benchmem ./internal/sharedlog/ > /tmp/bench_current.txt || \
		{ cat /tmp/bench_current.txt; exit 1; }
	@$(GO) run ./cmd/benchdelta results/bench_baseline.txt /tmp/bench_current.txt
