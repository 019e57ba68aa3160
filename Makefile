# Pre-PR gate: `make check` must pass before any change lands.
GO ?= go

.PHONY: check build vet perfbench-vet lint lint-json lint-budget test race cover golden memgate bench bench6 bench9 bench10 fuzz smoke soak-short shard-short

check: build vet perfbench-vet lint lint-budget test race cover golden memgate soak-short shard-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# _perfbench is a separate module (built against relest => ../), so the
# root ./... never loads it: vet it on its own, or a facade change it
# depends on would only surface when the benchmark runs.
perfbench-vet:
	cd _perfbench && $(GO) vet ./...

# Repo-specific invariants (determinism taint, view escape, context
# flow, worker purity, plus the syntactic rules); exits nonzero on any
# unsuppressed or stale-suppressed finding. See internal/lint and the
# "Static analysis" section of DESIGN.md.
lint:
	$(GO) run ./cmd/relestlint

# Same run, machine-readable: a JSON array of findings in LINT.json
# (empty array when clean). The artifact is written even when findings
# exist, but the target still fails so CI sees the gate.
lint-json:
	@$(GO) run ./cmd/relestlint -json > LINT.json; st=$$?; \
	cat LINT.json; exit $$st

# The interprocedural engine must stay cheap enough to run on every
# change: full module load + call graph + taint fixpoint + all rules
# inside the wall-clock budget asserted by TestLintRuntimeBudget.
lint-budget:
	$(GO) test -count=1 -run TestLintRuntimeBudget -v ./internal/lint | grep -v '^=== RUN\|^--- PASS'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage: report every package, enforce a floor where the contract is
# "instrumentation must be fully exercised" (internal/obs), "every
# admission/shutdown path must be driven" (internal/server), or "every
# analyzer and the dataflow engine must be exercised by fixtures"
# (internal/lint), or "every estimator path of the sketch tier must be
# exercised" (internal/sketch). Other packages are report-only — their
# floors are the statistical tests themselves.
cover:
	$(GO) test -cover ./... | grep -v '\[no test files\]'
	@pct=$$($(GO) test -cover ./internal/obs | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 70) { printf "internal/obs coverage %.1f%% is below the 70%% floor\n", p; exit 1 } \
		printf "internal/obs coverage %.1f%% (floor 70%%)\n", p }'
	@pct=$$($(GO) test -cover ./internal/server | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 70) { printf "internal/server coverage %.1f%% is below the 70%% floor\n", p; exit 1 } \
		printf "internal/server coverage %.1f%% (floor 70%%)\n", p }'
	@pct=$$($(GO) test -cover ./internal/lint | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 70) { printf "internal/lint coverage %.1f%% is below the 70%% floor\n", p; exit 1 } \
		printf "internal/lint coverage %.1f%% (floor 70%%)\n", p }'
	@pct=$$($(GO) test -cover ./internal/sketch | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 70) { printf "internal/sketch coverage %.1f%% is below the 70%% floor\n", p; exit 1 } \
		printf "internal/sketch coverage %.1f%% (floor 70%%)\n", p }'
	@pct=$$($(GO) test -cover ./internal/cluster | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 70) { printf "internal/cluster coverage %.1f%% is below the 70%% floor\n", p; exit 1 } \
		printf "internal/cluster coverage %.1f%% (floor 70%%)\n", p }'

# Adversarial soak slice: the five workload scenarios (zipf-mix, bursty,
# hot-key eviction churn, churn-heavy streams, cancellation storm) each
# run against a live relestd while a calibration probe stream holds the
# PR-3 bias/coverage bands. Seed-pinned and bounded well under a minute;
# the full-length soak is the same test with the knobs in
# internal/server/soak_test.go raised.
soak-short:
	$(GO) test -count=1 -run TestSoakScenarios -v ./internal/server | grep -v '^=== RUN'

# Sharded-tier slice: the coordinator's scatter-gather happy path, the
# deadline-miss degradation contract (partial: true, widened CI, named
# missed shards), and byte-identical estimates across a shard rebalance.
# The full gate adds the one-shard golden byte-identity and the
# shards={1,2,4} calibration bands, which run in `make test`.
shard-short:
	$(GO) test -count=1 -run 'TestShardFanout|TestShardDeadlineMiss|TestShardRebalance' -v ./internal/cluster | grep -v '^=== RUN'

# Service smoke test: build the daemon, walk the whole lifecycle against
# the real binary (start, register, estimate, scrape /metrics, SIGTERM,
# clean drain). This is the executable form of the README quick-start.
smoke:
	$(GO) test -run TestDaemonSmoke -count=1 -v ./cmd/relestd

# Short fuzzing smoke: each fuzzer runs for a few seconds on top of its
# committed seed corpus (testdata/fuzz). Crashers found locally land in
# testdata/fuzz as regression inputs.
fuzz:
	$(GO) test -run XXX -fuzz FuzzNormalize -fuzztime 3s ./internal/algebra
	$(GO) test -run XXX -fuzz FuzzPredicate -fuzztime 3s ./internal/algebra
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime 3s ./internal/query

# Golden-drift gate: the byte-identity tests must pass against the
# committed estimate fixtures, and nothing may have regenerated them —
# a drifted golden means estimates changed, which is never a side effect.
golden:
	$(GO) test -count=1 -run 'TestGoldenOutput|TestMetricsOutput|TestEstimateGoldenByteIdentity' ./cmd/relest ./internal/server
	@drift=$$(git status --porcelain -- cmd/relest/testdata internal/server/testdata); \
	if [ -n "$$drift" ]; then \
		echo "golden estimate fixtures drifted:"; echo "$$drift"; exit 1; \
	fi

# Storage-engine + variance-engine benchmarks. Emits BENCH_5.json: term-eval
# throughput, resident bytes/row, and index build time against the
# pre-columnar baselines (measured identically on this host at the row-store
# seed, immediately before the refactor). BENCH_1.json records the ISSUE 1
# evaluation-engine results.
bench:
	$(GO) test -run XXX -bench 'JackknifeVariance|SplitSampleVariance|PointEstimateJoin|BuildIndex|RelationFootprint|ExactCountJoin' -benchtime 50x . \
	| $(GO) run ./cmd/benchjson \
		-issue 5 \
		-title "Columnar storage engine with zero-copy sample views and typed join keys" \
		-command "make bench" \
		-baseline BenchmarkPointEstimateJoin=485350 \
		-baseline BenchmarkBuildIndex=4967415 \
		-baseline BenchmarkExactCountJoin=8124419 \
		-baseline-metric heap-bytes/row=103.2 \
		-note "Baselines were measured on this host at the row-store seed, with the same fixtures and methodology: BenchmarkPointEstimateJoin (one join COUNT estimate from n=1000 samples), BuildIndex over the 20k-row join fixture (then string-keyed), ExactCountJoin (full 20k x 20k hash join), and heap bytes/row from runtime.MemStats growth building the 2x20k JoinPair fixture (BenchmarkRelationFootprint repeats the measurement)." \
		-note "Acceptance targets: >=2x BenchmarkPointEstimateJoin speedup (term-eval throughput), >=3x heap-bytes/row improvement. speedup and metric_improvement are baseline/current." \
		-note "ExactCountJoin trades a little: the row-store emitted join output as shared-backing tuple appends, while the columnar engine writes each output row into four typed vectors (typed column-to-column copy, capacity pre-reserved from the match count). The estimators never materialize joins, so the hot path keeps the full win." \
		> BENCH_5.json
	cat BENCH_5.json
	$(GO) test -run XXX -bench 'BenchmarkJackknife' -benchtime 5x ./internal/estimator/
	$(MAKE) bench6

# Streaming-executor + cross-term CSE benchmarks. Emits BENCH_6.json:
# multi-term estimate throughput with subexpression sharing against the
# -no-cse baseline (measured identically on this host immediately before
# enabling CSE), and the streaming executor's heap ceiling on a probe
# relation 40x the batch size.
bench6:
	$(GO) test -run XXX -bench 'MultiTermOverlap|StreamCountCeiling' -benchtime 30x . \
	| $(GO) run ./cmd/benchjson \
		-issue 6 \
		-title "Streaming batch execution with cross-term common-subexpression elimination" \
		-command "make bench6" \
		-baseline BenchmarkMultiTermOverlap=260406435 \
		-baseline-metric peak-ratio-10x=10.0 \
		-note "BenchmarkMultiTermOverlap is one full COUNT estimate of an 8-step join chain over a 3-way union of disjoint selections (7 polynomial terms sharing one join prefix). The baseline is BenchmarkMultiTermOverlapNoCSE measured identically on this host: the same estimate with -no-cse, so speedup = no-CSE/CSE is the cross-term sharing win on a 3-term overlapping-join query. The NoCSE benchmark is included in each run so the ratio can be re-derived from current numbers." \
		-note "BenchmarkStreamCountCeiling reports peak-bytes (the streaming executor's high-water working set: operator batches + hash build side, from relest_stream_peak_bytes) on a probe relation of 40x1024 rows, and peak-ratio-10x = peak at 40x batches / peak at 4x batches. ~1.0 means the heap ceiling is independent of relation size; the 10.0 baseline is how a materializing evaluator scales over the same 10x growth, so metric_improvement ~= 10 is the constant-memory property. The regression gate is TestStreamMemoryCeiling (make memgate)." \
		> BENCH_6.json
	cat BENCH_6.json

# Tier-planner benchmarks. Emits BENCH_9.json: the same sketch-eligible
# equi-join COUNT answered by the sketch tier versus the sample-based
# counting polynomial, from one prepared Estimator handle. The baseline
# is BenchmarkTierSampleCount measured identically on this host, so
# speedup = sample/sketch is the per-query win of sketch-first
# answering; the sample benchmark is included in each run so the ratio
# can be re-derived from current numbers. Acceptance floor: >=5x.
bench9:
	$(GO) test -run XXX -bench 'TierSketchCount|TierSampleCount' -benchtime 30x . \
	| $(GO) run ./cmd/benchjson \
		-issue 9 \
		-title "Tiered hybrid synopses behind a unified Estimator facade" \
		-command "make bench9" \
		-baseline BenchmarkTierSketchCount=343027 \
		-note "Both benchmarks answer COUNT of the same equi-join (zipf 0.5 pair, domain 2000, 20k rows per relation) through relest.New handles differing only in tier policy. The sketch tier reads the prebuilt hashed-AGMS counters (9 groups x 512 buckets per column); the sample tier runs the counting polynomial over n=1000-per-relation samples. The baseline for BenchmarkTierSketchCount is BenchmarkTierSampleCount measured identically on this host, so speedup = sample-tier/sketch-tier latency; the acceptance floor is 5x." \
		> BENCH_9.json
	cat BENCH_9.json

# Sharded-tier benchmarks. Emits BENCH_10.json: the same pinned-seed
# join COUNT answered through the coordinator at shards 1, 2 and 4,
# against a stock single-node relestd measured in the same run. The
# baseline for every coordinator benchmark is BenchmarkSingleNodeEstimate
# measured identically on this host immediately before this target was
# added, so speedup = single-node/coordinator is < 1 by construction: it
# QUANTIFIES the cluster hop's overhead rather than claiming a win. The
# single-node benchmark is included in each run so the ratio can be
# re-derived from current numbers.
bench10:
	$(GO) test -run XXX -bench 'CoordEstimate|SingleNodeEstimate' -benchtime 30x ./internal/cluster \
	| $(GO) run ./cmd/benchjson \
		-issue 10 \
		-title "Sharded estimation tier: coordinator + shard-node architecture with stratified merge" \
		-command "make bench10" \
		-baseline BenchmarkCoordEstimateShards1=163745 \
		-baseline BenchmarkCoordEstimateShards2=163745 \
		-baseline BenchmarkCoordEstimateShards4=163745 \
		-note "All benchmarks answer COUNT of the same equi-join (zipf-pair, domain 200, 2000 rows per relation, 200-per-relation samples, pinned seeds) over HTTP. BenchmarkCoordEstimateShardsN runs the full coordinator path: scatter-gather fanout to N in-process shard relestds, per-shard estimation, stratified merge, JSON re-encode. The 163745 ns baseline is BenchmarkSingleNodeEstimate measured identically on this host (included in each run), so speedup = single-node/coordinator quantifies coordination overhead: about 1.8x latency at shards=1 (one extra HTTP hop plus decode/merge/re-encode) and rising with fanout width on one machine, the price of the tier being real processes speaking the real wire protocol. On a multi-node deployment the per-shard estimation cost divides by N instead of stacking on one host; the contract this tier buys is the stratified-merge statistics and the shards=1 byte-identity, not single-host latency." \
		> BENCH_10.json
	cat BENCH_10.json

# Memory-ceiling regression gate: the streaming executor's peak working
# set must stay flat when the probe relation grows 10x (see
# TestStreamMemoryCeiling and BENCH_6.json).
memgate:
	$(GO) test -count=1 -run TestStreamMemoryCeiling ./internal/algebra
