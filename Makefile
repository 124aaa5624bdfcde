# Standard development targets. `make check` is the tier-1 verify:
# build + vet + plain tests + race-hardened tests + the tracing
# no-overhead guard.

GO ?= go

.PHONY: build vet test test-race check-overhead test-query test-determinism test-delta-race test-load test-shard test-obs test-codec test-ingest check bench bench-json bench-build bench-update bench-load bench-shard bench-obs bench-codec bench-ingest clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency suite (sharded cache, singleflight decode dedup,
# parallel query engine, 32-goroutine stress) under the race detector.
test-race:
	$(GO) test -race ./...

# Guard the untraced serving path: an engine with an attached-but-never-
# sampling tracer must add zero allocations per query — on Run and on
# RunPartial, the entry shard replicas serve — and the trace
# primitives themselves must be allocation-free when the context carries
# no trace. The cross-process guards extend this across the tier: an
# unsampled routed request must emit no X-SNode-Trace header and pay
# zero allocations for the propagation machinery at the router, the
# shard server, and the header codec. The decode guard pins every
# codec's whole-graph decode to a constant number of allocations (plus
# one per 4096-ID arena chunk for codec/paper): a return to per-list
# growth trips it. Run with -count=1 so the guard always executes.
check-overhead:
	$(GO) test -count=1 -run 'TestUntracedTracingAddsNoAllocs' ./internal/query
	$(GO) test -count=1 -run 'TestUntracedPrimitivesZeroAlloc' ./internal/trace
	$(GO) test -count=1 -run 'TestCrossProcessUntracedZeroAlloc' ./internal/trace ./internal/serve ./internal/router
	$(GO) test -count=1 -run 'TestDecodeHotPathAllocs' ./internal/snode

# Plan gate: every scheme's Table 3 rows and cold navigation I/O
# (seeks, bytes, graph loads) against the golden file generated before
# the plans were unified, and the Q3-Q6 answers against brute force off
# the corpus graph. A plan edit that moves Figure 11 fails here by
# scheme and query. Run with -count=1 so the gate always executes.
test-query:
	$(GO) test -count=1 -run 'TestTable3Golden|TestQ[3-6]AgainstBruteForce' ./internal/query

# Build determinism: the parallel refiner and streaming assembly must
# produce byte-identical partitions and artifacts at every worker
# count, window size, and GOMAXPROCS. Run with -count=1 so the guard
# always executes.
test-determinism:
	$(GO) test -count=1 -run 'TestBuildDeterministic|TestRefineWorkerCountInvariant' ./internal/snode ./internal/partition

# Live-update race suite: concurrent mutators, readers, page adds, and
# the background compactor (seal / size-tiered merge / fold-back all
# firing) over one delta overlay, under the race detector. Run with
# -count=1 so the storm always executes.
test-delta-race:
	$(GO) test -race -count=1 -run 'TestChaosReadersWritersCompactor' ./internal/delta

# Fast load-path gate: the full open-loop pipeline — capacity probe,
# Poisson and bursty traces, admission shedding at 2x capacity, knee
# summary, artifact writer — at tiny scale and short windows. Run with
# -count=1 so the gate always executes.
test-load:
	$(GO) test -count=1 -run 'TestLoadSmoke' ./internal/bench
	$(GO) test -count=1 -run 'TestAllCoversEveryRegisteredExperiment' ./cmd/snbench

# Distributed-serving gate, under the race detector: the golden
# equivalence tests (partial queries merged across K shards ==
# single-node rows, in-process and through the HTTP router, cross-shard
# /out included) plus the failure drills — replica ejection, probe
# re-admission, kill-one-replica failover, version-skew rejection. Run
# with -count=1 so the gate always executes.
test-shard:
	$(GO) test -race -count=1 ./internal/shard ./internal/router

# Observability gate: the distributed-trace golden test (a sampled
# /query at K=2 stitches one trace with both shard subtrees), the
# federation invariant (cluster merge == sum of per-replica scrapes,
# stale replicas retained), the SLO scoreboard's burn-rate reaction to
# an outage, histogram merge algebra (bucket sums, exemplar retention,
# typed bounds-mismatch errors), and sampled-bit propagation across
# differing SampleEvery settings. Run with -count=1 so the gate always
# executes.
test-obs:
	$(GO) test -count=1 -run 'TestDistributedTraceStitching|TestClusterMetricsInvariant|TestSLOScoreboard' ./internal/router
	$(GO) test -count=1 -run 'TestRemoteSampledBit|TestForcedSampling|TestStartLinked|TestHeaderRoundTrip' ./internal/serve ./internal/trace
	$(GO) test -count=1 ./internal/slo ./internal/metrics

# Codec gate: encode→decode identity for every registered codec over
# every payload kind (fuzz seed corpora included), cross-codec build
# equivalence (row-identical adjacency under paper/lz/log/auto, codec
# IDs recorded and dispatched), the v1-artifact compatibility and
# future-version rejection suite, hostile-input decode over flipped
# payload bytes, codec flow through sharded builds, and the snbench
# registry check that `-experiment codecs` resolves; below the codecs,
# the windowed bit reader against its bit-at-a-time reference and
# refenc's hostile-count and arena guards; above them, the two-state
# superedge entry (rows equal the CSR under every codec and budget,
# cache accounting across the replacement, a damaged list section
# failing only its readers). Run with -count=1 so the gate always
# executes.
test-codec:
	$(GO) test -count=1 -run 'TestReaderMatchesBitAtATimeReference|TestUnaryZeroTailOverruns' ./internal/bitio
	$(GO) test -count=1 -run 'TestDecodeRejects|TestDecodeAcceptsZeroBitFinalValue|TestDecodeListsAreExactSizedArenaSlices|TestReadRunRejectsOverflowGap' ./internal/refenc
	$(GO) test -count=1 -run 'TestCodec|FuzzCodecRoundTrip|FuzzDecodeHostile|TestCorruptIndexAllCodecs|TestMeasureDecode|TestLegacyMetaV1ServesAsPaper|TestUnknown|TestSourcesFirst|TestSourcesOnly|TestVerifyLeavesMaterializedEntries|TestMaterialized|TestCorruptListSection' ./internal/snode
	$(GO) test -count=1 -run 'TestCodecQueryEquivalence' ./internal/query
	$(GO) test -count=1 -run 'TestShardBuildCarriesCodec' ./internal/shard
	$(GO) test -count=1 -run 'TestRegistryEntriesAreWellFormed' ./cmd/snbench

# Ingestion gate: the hostile-input parser table (comments, CRLF,
# duplicate edges, self-loops, sparse 64-bit IDs, truncated gzip,
# checksum mismatch), the URL-table universe semantics, the
# spill-vs-in-memory graph equivalence, the golden end-to-end oracle
# (synth -> export -> ingest -> build byte-identical to the direct
# build at every worker count, heap budget and refinement spill rounds
# engaged), the committed-fixture format pin, the partition spill-round
# bit-identity suite, and the snbench registry check that
# `-experiment all` includes `ingest`. Run with -count=1 so the gate
# always executes.
test-ingest:
	$(GO) test -count=1 ./internal/ingest
	$(GO) test -count=1 -run 'TestRefineSpill|TestEncodeDecodeGroups|TestDecodeGroupsCorrupt|TestRoundSpill' ./internal/partition
	$(GO) test -count=1 -run 'TestSpill' ./internal/iosim
	$(GO) test -count=1 -run 'TestAllCoversEveryRegisteredExperiment' ./cmd/snbench

check: build vet test test-race check-overhead test-query test-determinism test-delta-race test-load test-shard test-obs test-codec test-ingest

bench:
	$(GO) test -bench=. -benchmem

# Benchmark trajectory artifact: the concurrency experiment's metrics
# registry (histograms, cache/io counters, worker occupancy) as JSON,
# committed per PR so serving-path regressions show up in review.
bench-json:
	$(GO) run ./cmd/snbench -experiment concurrency -quick -trace 8 -metrics-out BENCH_PR3.json

# Build-scaling artifact: wall time at 1/2/4/8 workers (refine, encode,
# total, peak heap) with paced repository scans, committed per PR so
# build-path regressions show up in review. Artifacts must hash
# identical at every width (the "identical" column).
bench-build:
	$(GO) run ./cmd/snbench -experiment build -pace 0.25 -build-out BENCH_PR4.json

# Serving-under-churn artifact: the six-query mix timed against the
# bare base store, the empty overlay (pass-through regression check),
# a hot memtable, sealed segments, the compacted stack, and the
# post-fold-back state, committed per PR so update-path regressions
# show up in review.
bench-update:
	$(GO) run ./cmd/snbench -experiment update -quick -pace 0.25 -update-out BENCH_PR5.json

# Open-loop load artifact: the latency-vs-offered-load curve through
# the saturation knee (closed-loop capacity probe, then Poisson and
# bursty sweeps at fixed fractions of capacity), committed per PR so
# admission/shedding regressions show up in review. The summary block
# pins the invariant: at 2x the knee the server sheds (shed > 0,
# bounded queues) and admitted-request p99 stays within 2x of at-knee
# p99.
bench-load:
	$(GO) run ./cmd/snbench -experiment load -quick -load-out BENCH_PR6.json

# Shard-scaling artifact: the same closed-loop mixed workload against a
# single-node server and against the scatter-gather router at K=1/2/4
# shards (QPS, per-class p50/p99, speedup vs single-node), committed
# per PR so distributed-serving regressions show up in review. Full
# modeled pacing keeps the tier I/O-bound, so the speedup column
# measures shard parallelism rather than the host's core count (the
# provenance block records both).
bench-shard:
	$(GO) run ./cmd/snbench -experiment shard -quick -shard-out BENCH_PR7.json

# Fleet-observability artifact: a K=2 routed tier with per-replica
# registries and router-forced tracing, driven through a healthy phase
# and an overload phase. The report pins the PR's invariants: the SLO
# burn rate reacts (healthy ~0x, overload >1x), the cluster merge
# equals the per-replica scrape sums, a killed replica's counters stay
# visible with a staleness mark, and a latency-tail exemplar resolves
# to a stitched distributed trace with both shard subtrees.
bench-obs:
	$(GO) run ./cmd/snbench -experiment obs -quick -obs-out BENCH_PR8.json

# Codec bake-off artifact: the same crawl built under every codec
# setting (paper, lz, log, and the per-supernode auto bake-off), scored
# on payload bits/edge, pure-CPU decode ns/edge per (codec, kind)
# class, and cold-cache /out p50/p99 at three cache budgets. The
# summary pins the PR's gates: a non-paper codec wins decode ns/edge
# for at least one class within a 1.1x size leash, and the auto
# artifact's default-budget p99 does not regress against paper.
bench-codec:
	$(GO) run ./cmd/snbench -experiment codecs -quick -codec-out BENCH_PR9.json

# Ingestion scaling artifact: the 100k/300k/1M-page curve through the
# full external-memory pipeline — synth corpus exported as a SNAP edge
# list (+ URL table + sha256 manifest), re-ingested under the 32 MB
# heap budget (sorted runs, k-way merge), built with refinement spill
# rounds on — vs the direct in-memory build of the same corpus at each
# size. The summary pins the PR's gates: the largest size spills and
# its transient ingest state respects the budget, every S-Node artifact
# hashes identical to the direct build, and the six queries return
# identical rows. Full scale (no -quick): the 1M-page point is the
# acceptance criterion.
bench-ingest:
	$(GO) run ./cmd/snbench -experiment ingest -ingest-out BENCH_PR10.json

clean:
	$(GO) clean ./...
