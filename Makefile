# Standard development targets. `make check` is the tier-1 verify:
# build + vet + plain tests + race-hardened tests + the named gates
# below. Measurement is three targets: `bench-paper` (the paper's
# shapes as testing.B assertions), `bench` (the suite in benchmark/,
# every metric, one result file) and `bench-gate` (parent vs HEAD).

GO ?= go

.PHONY: build vet test test-race test-bench check-overhead test-query test-determinism test-delta-race test-load test-shard test-obs test-codec test-ingest check bench-paper bench bench-gate clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l cmd internal examples)"

# The plain suite runs under a private TMPDIR that must be empty when it
# ends: a fixture some test forgot to remove fails the target. Fixtures
# a package's tests share go through internal/fixture (removed after
# m.Run), per-test ones through t.TempDir.
test:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	TMPDIR="$$tmp" $(GO) test ./... && \
	if [ -n "$$(ls -A "$$tmp")" ]; then echo "tests left files in TMPDIR:"; ls -A "$$tmp"; exit 1; fi

# The concurrency suite (sharded cache, singleflight decode dedup,
# goroutines over a shared query engine, 32-goroutine stress) under the
# race detector.
test-race:
	$(GO) test -race ./...

# One iteration of the lookup benchmarks — warm (BenchmarkOutWarmParallel
# fails if a lookup misses) and cold (BenchmarkOutCold: uniform pages,
# 256 KiB budget) — of the whole-graph read (BenchmarkScan: a cold Scan
# at 256 KiB, in ns/edge, the figure to hold against the suite's
# refenc.decode_ns_per_edge) and of the write side's
# (BenchmarkEncodeSupernode; BenchmarkIngest, which fails if its budget
# stops spilling; BenchmarkRefine, in ns/page and allocs/op;
# BenchmarkEncodeWindow, refenc's list encoder alone), so they cannot rot
# between the PRs that read them.
test-bench:
	$(GO) test -run xxx -bench 'OutWarm|OutCold|Scan|EncodeSupernode' -benchtime 1x ./internal/snode
	$(GO) test -run xxx -bench 'Ingest' -benchtime 1x ./internal/ingest
	$(GO) test -run xxx -bench 'Refine' -benchtime 1x ./internal/partition
	$(GO) test -run xxx -bench 'EncodeWindow' -benchtime 1x ./internal/refenc

# Guard the untraced serving path: an engine with an attached-but-never-
# sampling tracer must add zero allocations per query — on Run and on
# RunPartial, the entry shard replicas serve — and the trace
# primitives themselves must be allocation-free when the context carries
# no trace. The cross-process guards extend this across the tier: an
# unsampled routed request must emit no X-SNode-Trace header and pay
# zero allocations for the propagation machinery at the router, the
# shard server, and the header codec. The decode guard pins the
# whole-graph decode to the allocations of what it returns
# (offsets, IDs, the graph's struct, a superedge graph's sources): a
# per-list or per-chunk allocation trips it. The warm-lookup guard pins
# Out over resident graphs at zero allocations, unfiltered and (after
# the call that compiles the filter) filtered: per-call scratch or
# per-call filter evaluation on the hit path trips it, on a supernode
# whose graphs overflow the lookup's stack array too. The cold-lookup
# guard bounds the allocations of a miss — per graph loaded, with the
# cache reset before every lookup — so a flight, a channel, a header
# array or a cache node per load, or a decoded list, trips it. The bucketing guard pins the encode stage's
# link bucketing at zero allocations on warm scratch, for the supernode
# with the fewest links and the one with the most: a list grown by
# append or a map entry per target supernode trips it. The clustered-split
# guard holds refinement's k-means split to the same allocations on warm
# scratch for the smallest element of P0 that splits and the largest:
# a map entry per target supernode, a signature allocated per page or a
# child's page list grown by append trips it. The partial-frame
# guard pins the router's decode of a shard's partial leg at the same
# allocations for 3,531 rows as for one (the body's string and the row
# slice): an allocation per field or per row trips it. The counter pin
# holds a fixed 20,000-lookup stream at 16 KiB, 64 KiB and 256 MiB to the
# loads, hits, misses, evictions, materializations and list decodes it
# made when every graph first entered the cache encoded: a summary check
# moved out of the lookup's loop trips it. The set-at-a-time guards pin
# a warm multi-supernode Neighbors call at zero allocations (working
# memory per call, or a list gathered by append per page, trips it) and
# a warm Q1-Q6 cycle on the query fixture at no more than a fifth of the
# 28,570 graph-cache lookups it made page by page (a plan step that reads
# a page at a time again trips it). The routed-query guards pin Q3's
# rows, its leg (the page-set frame written, read and merged) and
# MergePartials(Q3) at the same allocations for 3,531 base-set members as
# for one, and the leg's frame at two bytes a member (a row or a string
# per member, or a set grown by append, trips them); a warm Q2 on a
# half-owning engine under one list of Stanford's pages (a source or an
# owned subset rebuilt per query trips it); a warm Q3 under one bitset
# of the corpus's pages beyond its member list (a member bitset made per
# query trips it); a warm Q5 handing its step the filter the store
# compiled on the first (a filter built per query trips it); a warm
# Neighbors call on a shard's merged store at zero allocations (a join
# list grown per call trips it, under -race too); the router's read of a
# leg that declares its length at one allocation, its body (a buffer
# grown while reading trips it); and a shard's page metadata held once:
# after OpenServing one string per domain, the URLs in one block, no
# term lists and an index equal to one built over the crawl, every
# posting list at its exact size and owning its terms, and corpusio.Read
# at one allocation a page and a domain whatever the terms, and at the
# file's bytes once (a string copied per page or per term, a list grown
# by append, or the file held twice, trips them).
# Run with -count=1 so the guard always executes.
check-overhead:
	$(GO) test -count=1 -run 'TestUntracedTracingAddsNoAllocs|TestNavigateLookupsPinned|TestQ3RowsAndMergeAllocs|TestWarmQ2AllocatesLessThanStanford|TestWarmQ3AllocatesLessThanItsBitset|TestWarmQ5CompilesNoFilter' ./internal/query
	$(GO) test -count=1 -run 'TestUntracedPrimitivesZeroAlloc' ./internal/trace
	$(GO) test -count=1 -run 'TestCrossProcessUntracedZeroAlloc|TestDecodePartialAllocs|TestQ3LegAllocs|TestLegReadAllocatesItsBodyOnce' ./internal/trace ./internal/serve ./internal/router
	$(GO) test -count=1 -run 'TestWarmMergedNeighborsAllocatesNothing|TestServingShardHoldsPageMetaOnce' ./internal/shard
	$(GO) test -count=1 -run 'TestReadAllocsPerPageNotPerTerm|TestReadHoldsTheFileOnce|TestBuildHoldsPostingsExactAndTermsOwn' ./internal/corpusio ./internal/textindex
	$(GO) test -count=1 -run 'TestDecodeHotPathAllocs|TestWarmOutAllocatesNothing|TestWarmNeighborsAllocatesNothing|TestColdOutAllocsPerLoad|TestBucketingAllocsIndependentOfEdges|TestLookupCountersPinned' ./internal/snode
	$(GO) test -count=1 -run 'TestClusteredSplitAllocs' ./internal/partition

# Plan gate: every scheme's Table 3 rows and cold navigation I/O
# (seeks, bytes, graph loads) against the golden file generated before
# the plans were unified, the Q3-Q6 answers against brute force off
# the corpus graph, and Q3 on a corpus without its phrase (an empty base
# set, no page read). A plan edit that moves Figure 11 fails here by
# scheme and query. snquery over a dataset directory must print the
# rows, seeks, bytes and graph loads of the engine over repo.Build of the
# same crawl, and refuse a sharded dataset by naming snrouter. Run with
# -count=1 so the gate always executes.
test-query:
	$(GO) test -count=1 -run 'TestTable3Golden|TestQ[3-6]AgainstBruteForce|TestQ3WithoutItsPhraseIsEmpty' ./internal/query
	$(GO) test -count=1 ./cmd/snquery

# Build determinism: the parallel refiner and streaming assembly must
# produce byte-identical partitions and artifacts at every worker
# count, window size, and GOMAXPROCS. The one codec's bytes themselves
# are pinned by TestDatasetBytesAreStable (test-shard). Run with
# -count=1 so the guard always executes.
test-determinism:
	$(GO) test -count=1 -run 'TestBuildDeterministic|TestRefineWorkerCountInvariant' ./internal/snode ./internal/partition

# Live-update race suite: concurrent mutators, readers, page adds, the
# background compactor (seal / size-tiered merge firing) and a fold-back
# called mid-storm over one delta overlay, under the race detector; and
# FuzzOpenSegment's seed corpus (a valid segment file and its
# negative-offset, wrapping-offset, unsorted-index, bad-op and truncated
# mutants, none of which may panic the reads). Run with -count=1 so the
# storm always executes.
test-delta-race:
	$(GO) test -race -count=1 -run 'TestChaosReadersWritersCompactor|FuzzOpenSegment' ./internal/delta

# Load-path gate: admission accounting under a 32-goroutine storm
# (offered == admitted + shed per class, queues within their bounds,
# no leaked slot), shedding when slots and queue are full, and the
# same refusal over HTTP as 429 + Retry-After with the queued request
# still served. Run with -count=1 so the gate always executes.
test-load:
	$(GO) test -count=1 -run 'TestChaos32Goroutines|TestShedOnFull' ./internal/admission
	$(GO) test -count=1 -run 'TestQueueFullShedsWith429' ./internal/serve

# Distributed-serving gate, under the race detector: the failure drills
# (what a partition answers is test-codec's oracle) — replica ejection, probe
# re-admission, kill-one-replica failover, a shard wholly down failing
# closed, version-skew rejection, a JSON-speaking replica refused, a
# shard's 429 relayed with the largest Retry-After (TestShedRelayed) —
# the manifest's fuzz seeds (FuzzLoadManifest: a built manifest and its
# gap, overlap, out-of-range-shard and "../" mutants), snrouter's flag
# checks (TestValidate), the X-SNode-Trace header's fuzz seeds
# (FuzzParseHeader), and the partial frame the legs travel in: round
# trip for every query on both shards of K=2, each bad frame refused by
# name, FuzzDecodePartial's seed corpus. Run with -count=1 so the gate
# always executes.
test-shard:
	$(GO) test -race -count=1 ./internal/shard ./internal/router ./cmd/snrouter
	$(GO) test -race -count=1 -run 'TestPartialFrameRoundTrip|TestDecodePartialRefusals|FuzzDecodePartial|FuzzParseHeader' ./internal/serve ./internal/trace

# Observability gate: the distributed-trace golden test (a sampled
# /query at K=2 stitches one trace with both shard subtrees), the
# federation invariant (cluster merge == sum of per-replica scrapes,
# stale replicas retained), the router's per-class counters (requests
# and errors through a shard outage, sheds with the relayed
# Retry-After), histogram merge algebra (bucket sums, exemplar
# retention, typed bounds-mismatch errors), sampled-bit propagation
# across differing SampleEvery settings and the propagation header's
# fuzz seeds (FuzzParseHeader), the manifest's (FuzzLoadManifest), the
# one-walker trace export (text and Chrome print the tree Trace.JSON
# builds, local and stitched spans alike, an open span marked in both:
# TestAttachRemoteExports), the metric catalogue (TestMetricCatalogue,
# in ./internal/metrics: every registered name has a row, every row a
# registration, and README's table is its rendering) and the one log
# path (TestOneLogPath: no non-test file under internal/ or cmd/
# imports log), POST /update's body check (FuzzUpdateBody's seed corpus:
# an op missing a field, an unknown field, an array after the array,
# each refused with nothing applied) and every -run pattern here naming
# a test (TestMakefileRunPatternsMatch). Run with -count=1 so the gate
# always executes.
test-obs:
	$(GO) test -count=1 -run 'TestDistributedTraceStitching|TestClusterMetricsInvariant|TestOneShardAllDownFailsClosed|TestShedRelayed' ./internal/router
	$(GO) test -count=1 -run 'TestRemoteSampledBit|TestForcedSampling|TestStartLinked|TestHeaderRoundTrip|FuzzParseHeader|TestAttachRemoteExports|FuzzUpdateBody' ./internal/serve ./internal/trace
	$(GO) test -count=1 -run 'FuzzLoadManifest' ./internal/shard
	$(GO) test -count=1 ./internal/metrics
	$(GO) test -count=1 -run 'TestOneLogPath|TestMakefileRunPatternsMatch' ./internal/deadcode

# Codec gate: encode→decode identity for the one codec, paper §3's
# refenc lists and bounded gap-coded sources, over every payload kind
# through the one framing (fuzz seed corpora included), a build's
# adjacency row-identical to its corpus, meta.bin's round trip, the
# rejection of meta.bin versions 1 and 2 (rebuild the dataset) and of a
# future one, a directory that contradicts the supernode
# graph refused at Open, meta.bin held to the shared reader's checks (a
# length prefix that sizes nothing, a directory of seven-byte entries
# read back, a value too wide for its field, trailing bytes,
# FuzzReadMeta's seed corpus), and hostile-input decode
# over flipped payload bytes; below the codec,
# the windowed bit reader against its bit-at-a-time reference, the
# one-window gamma, minimal-binary, gap-list and Huffman decoders
# against the split decoders they replaced, refenc's hostile-count and
# flat-form guards, and its one-list decode against the whole decode
# (window and exact streams, every gap code, every list); above it,
# decoded rows and hostile-input verdicts against the values recorded at
# the parent of the flat decoded form (the verdicts seed by seed, at the
# parent of the lz removal), every payload's lists decoded one at a time
# against its whole decode, the two states of every
# cache entry (rows equal the CSR under every budget, cold,
# warm and under 4 KiB; cache accounting across the replacement; a graph
# admitted at most once; a damaged superedge list section failing only
# its readers, and a damaged intranode list only the pages from it on,
# whatever the cache holds), the whole-graph Scan (each graph read
# once, stopping on a visitor error or a cancelled context) and the
# flight a miss's waiters share (made by the first of them, releasing
# all); the set-at-a-time read (Neighbors: each page's list equals its
# one-page read under every filter, budget and cache state; a damaged
# list fails exactly the sets a one-page read of one of their pages
# fails; a cancelled call leaves no decode in flight); and the one
# oracle (TestOracle): every scheme's Out, In, Neighbors, Scan and six
# queries, K-shard partitions in process and through the router, and
# delta overlays, against a CSR of a synth crawl and of two Kronecker
# graphs. Run with -count=1 so the gate always executes.
test-codec:
	$(GO) test -count=1 -run 'TestReaderMatchesBitAtATimeReference|TestUnaryZeroTailOverruns' ./internal/bitio
	$(GO) test -count=1 -run 'TestWindowDecodersMatchReferences|TestGammaAtTheEdgesOfTheWindow|TestHuffmanWindowDecodeMatchesBitwise|TestRLERunsRejectOverlongRun' ./internal/coding
	$(GO) test -count=1 -run 'TestDecodeRejects|TestDecodeAcceptsZeroBitFinalValue|TestDecodeListsAreExactSizedFlatArrays|TestDecodeListMatchesDecodeLists|TestReadRunRejectsOverflowGap|TestRejectsBadLists' ./internal/refenc
	$(GO) test -count=1 -run 'TestNeighbors|TestCodec|FuzzCodecRoundTrip|FuzzDecodeHostile|TestCorruptIndexAllCodecs|TestMeasureDecode|TestUnknownMetaVersionRejected|TestOpenRefusesContradictoryDirectory|TestSourcesFirst|TestSourcesOnly|TestVerifyLeavesMaterializedEntries|TestScan|TestMaterialized|TestCorruptListSection|TestDecodeListEqualsDecodeGraph|TestColdWarmAndDamagedReadsAgree|TestGraphAdmittedAtMostOnce|TestDecodedRowsEqualParents|TestHostileVerdictsEqualParents|TestFlightIsMadeByItsFirstWaiter|TestParkedLeaderReleasesLookupsWaitingOnIt|TestLengthPrefixSizesNoAllocation|TestDirectoryCountBoundIsSevenBytes|TestValueTooWideForItsFieldIsRefused|TestTrailingBytesAreRefused|FuzzReadMeta' ./internal/snode
	$(GO) test -count=1 -run 'TestOracle' ./internal/store

# Ingestion gate: the hostile-input parser table (comments, CRLF,
# duplicate edges, self-loops, sparse 64-bit IDs, truncated gzip,
# checksum mismatch), the block pipeline against the serial scanner it
# replaced (statistics, run files, table, CSR and error text equal at
# pool widths 1/2/8, plain and gzipped, wherever the blocks are cut),
# the interpolated ID lookup against binary search, a cancelled ingest
# leaving no run and no directory, the URL-table universe semantics, the
# spill-vs-in-memory equivalence (graph, compaction table and duplicate
# count; dense IDs and an ID-only graph with raw IDs above 2^32 and one
# above 2^63), the golden end-to-end oracle (synth -> export -> ingest
# -> build byte-identical to the direct build at every worker count,
# heap budget engaged), a refused export leaving no torn table, the
# committed-fixture format pin, the spill runs' reader (FuzzOpenEdgeRun's
# seed corpus: a valid run, truncated, under a count it does not hold,
# with a wrapping gap and with a repeated edge — an edge that does not
# strictly follow the one before it is refused by name), and snbuild's
# source flags (exactly one
# of -pages and -ingest; -seed, -format and -max-heap-mb refused without
# the source they belong to). Run with -count=1 so the gate always
# executes.
test-ingest:
	$(GO) test -count=1 ./internal/ingest
	$(GO) test -count=1 -run 'TestSpill' ./internal/iosim
	$(GO) test -count=1 -run 'TestValidate' ./cmd/snbuild

check: build vet test test-race test-bench check-overhead test-query test-determinism test-delta-race test-load test-shard test-obs test-codec test-ingest

# The paper's evaluation as testing.B benchmarks (bench_test.go): each
# regenerates one table or figure at reduced scale and asserts its
# shape. `go run ./cmd/snbench -experiment all` prints the full-scale
# tables EXPERIMENTS.md records.
bench-paper:
	$(GO) test -bench=. -benchmem

# The benchmark suite: five workloads, every end-to-end metric with
# tracing off, then the per-layer metrics from a traced pass, written
# to one result file (benchmark/README.md has the catalogue).
bench:
	$(GO) run ./benchmark -all -trace 1 -result benchmark/out/head.json

# Regression gate: the suite at the parent commit (a detached worktree
# under .bench_build/, removed on exit) and at HEAD, three runs of each
# workload a side, then `compare`, which exits non-zero when any
# end-to-end metric is worse than its BENCHMARK.json bound allows. The
# two sides run back to back (~6 min each), so on a shared host whose
# speed drifts over minutes a `worse` on the time metrics wants a
# second run before it is believed; `bits_per_edge`, `peak_heap_mb`
# and `fail_ratio` do not drift.
bench-gate:
	@set -e; \
	git worktree add --detach .bench_build/parent HEAD~1; \
	trap 'git worktree remove --force .bench_build/parent' EXIT; \
	(cd .bench_build/parent && $(GO) run ./benchmark -all -runs 3 -result $(CURDIR)/benchmark/out/parent.json); \
	$(GO) run ./benchmark -all -runs 3 -result benchmark/out/head.json; \
	$(GO) run ./benchmark compare benchmark/out/parent.json benchmark/out/head.json

clean:
	$(GO) clean ./...
