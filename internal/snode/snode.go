// Package snode implements the paper's primary contribution: the S-Node
// two-level representation of Web graphs (§2-3).
//
// A partition P = {N1..Nn} of the pages (computed by internal/partition)
// induces:
//
//   - a supernode graph: one vertex per element, a superedge i→j iff
//     some page in Ni links to a page in Nj, Huffman-coded by in-degree
//     and held permanently in memory with 4-byte pointers to the
//     lower-level graphs (§3.3);
//   - one intranode graph per element, holding links within Ni;
//   - per superedge, either a positive graph (the links from Ni to Nj)
//     or a negative graph (the complement — the missing links), whichever
//     has fewer edges (§2);
//
// all lower-level graphs reference-encoded (internal/refenc), laid out
// on disk in linear order — each intranode graph followed by its out-
// superedge graphs — across index files of bounded size, and demand-
// loaded through a byte-budgeted buffer manager (second-chance
// replacement, cache.go).
//
// Pages are renumbered so each supernode owns a contiguous internal ID
// range (supernodes ordered by (domain, first URL), pages within an
// element by URL), enabling the compact PageID index; a domain index
// maps each registered domain to its supernode range (§3.3, Figure 7).
//
// # Thread safety
//
// An opened Representation is safe for concurrent use: any number of
// goroutines may call Out, OutFiltered, OutFilteredCtx, Scan, Verify,
// DomainSupernodes, and the stats accessors simultaneously, and Scan's
// fn may itself call Out. A lookup whose graphs are resident takes no
// lock: the buffer manager publishes each resident graph in an atomic
// slot indexed by GraphID, and a hit is one atomic load (plus setting the
// entry's second-chance bit when it is clear). Whatever changes
// residency — insert, replacement, eviction, claiming a miss, reset —
// runs under one of the locks the buffer manager is sharded by (GraphID
// hash; a mutex, budget slice, ring of entries and load counters per
// shard). Concurrent misses on one graph are deduplicated singleflight-
// style, so N goroutines requesting one supernode trigger exactly one
// decode. Cached entries and graphs are immutable: a positive superedge
// graph is resident first with only its sources decoded and is replaced
// — never edited — by the whole graph when a lookup needs one of its
// lists, so a graph one goroutine holds stays valid whatever the others
// do, evicting it included. Hit and miss counters are atomics that each
// lookup adds to once, after it has consulted its graphs; the load-side
// counters — including the decoded-edge counter behind the Table 2
// throughput metric — change under the shard locks; all are exact at
// quiescence. A store.Filter is resolved against the representation's
// supernodes once and the result memoised in the filter, so a filter
// must not change after its first use; the per-supernode graph lists it
// grows are each published once, by whichever goroutine builds one
// first. ResetStats and ResetCache may
// also be called concurrently with queries; a reset does not abandon
// in-flight decodes (their waiters are still released), but callers
// that want exact cold-cache accounting should quiesce queries first,
// as the paper's sweep protocol does.
package snode

import (
	"time"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/partition"
	"snode/internal/refenc"
)

// GraphID indexes the directory of lower-level graphs.
type GraphID = int32

// graph kinds in the directory.
const (
	kindIntra    uint8 = 1
	kindSuperPos uint8 = 2
	kindSuperNeg uint8 = 3
)

// Config controls building an S-Node representation.
type Config struct {
	// Partition configures the iterative refinement (§3.2).
	Partition partition.Config
	// Refenc configures reference encoding of the lower-level graphs
	// (consulted by codec/paper; codec/log ignores it).
	Refenc refenc.Options
	// Codec selects the wire format of the lower-level graphs: "paper"
	// (or empty, the default — the refenc scheme of §3) or "log". It is
	// recorded per directory entry, and a build is byte-deterministic
	// under either.
	Codec string
	// MaxFileSize bounds each index file (paper: 500 MB). Lower values
	// exercise the multi-file layout in tests.
	MaxFileSize int64
	// DisableNegative forces positive superedge graphs everywhere (an
	// ablation of the §2 pos/neg choice).
	DisableNegative bool
	// BuildWorkers bounds the build-side parallelism (refinement rounds
	// and supernode encoding). <= 0 selects GOMAXPROCS. The artifacts
	// are byte-identical for every value.
	BuildWorkers int
	// BuildIO, when set, charges each repository scan the build performs
	// (signature reads during clustered splits, page+link reads during
	// supernode encoding) to the accountant — pacing models the 2002
	// disk the paper built from, without affecting outputs.
	BuildIO *iosim.Accountant
	// Metrics, when set, receives the build_* instruments (split/abort
	// counters, encode progress, stage latencies).
	Metrics *metrics.Registry
}

// DefaultConfig returns the standard build configuration.
func DefaultConfig() Config {
	return Config{
		Partition:   partition.DefaultConfig(),
		Refenc:      refenc.Options{Window: refenc.DefaultWindow},
		MaxFileSize: 500 << 20,
	}
}

// dirEntry locates one encoded lower-level graph.
type dirEntry struct {
	Kind     uint8
	I, J     int32 // supernodes (J unused for intranode graphs)
	File     int32
	Offset   int64 // byte offset within the file
	NumBytes int32
	NumLists int32 // lists in the encoded stream (see codec)
	Codec    uint8 // wire format of the payload (codec IDs in codec.go)
}

// meta is everything held permanently in memory (and serialized to
// meta.bin): the supernode graph, the PageID and domain indexes, the
// graph directory, and build statistics.
type meta struct {
	NumPages int32
	NumEdges int64

	// Page renumbering: Perm[ext] = internal, Inv[internal] = ext.
	Perm []int32
	Inv  []int32

	// PageID index: supernode s owns internal pages
	// [SnBase[s], SnBase[s+1]).
	SnBase []int32

	// Domain index: parallel arrays, domains in supernode order; domain
	// Domains[k] owns supernodes [DomFirstSN[k], DomFirstSN[k+1]).
	Domains    []string
	DomFirstSN []int32

	// Supernode graph (decoded form): CSR over supernodes with a
	// parallel pointer per edge, plus one intranode pointer per vertex.
	SuperOff []int64
	SuperAdj []int32
	SuperGID []GraphID
	IntraGID []GraphID

	Directory []dirEntry
	FileSizes []int64 // per index file

	Stats BuildStats
}

// BuildStats captures the figures the scalability and compression
// experiments report.
type BuildStats struct {
	Supernodes int
	Superedges int64
	// SupernodeGraphBytes is the Figure 10 metric: the Huffman-encoded
	// supernode graph plus a 4-byte pointer per vertex and per edge.
	SupernodeGraphBytes int64
	// IndexFileBytes is the total size of the encoded lower-level
	// graphs on disk.
	IndexFileBytes int64
	// PageIDIndexBytes and DomainIndexBytes size the §3.3 indexes.
	PageIDIndexBytes int64
	DomainIndexBytes int64
	// PositiveSuperedges / NegativeSuperedges count the §2 choice.
	PositiveSuperedges int64
	NegativeSuperedges int64
	// Partition statistics, carried through for reporting.
	URLSplits       int
	ClusteredSplits int
	// BuildTime is reported by Build but serialized as zero, keeping
	// meta.bin byte-identical across builds of the same corpus.
	BuildTime time.Duration
	// Codecs breaks the index files down by wire format: one entry per
	// codec that encoded at least one supernode, in codec-ID order (one
	// entry in all, but for artifacts of the retired per-supernode
	// bake-off).
	Codecs []CodecBuildStat
}

// CodecBuildStat reports one codec's share of an artifact.
type CodecBuildStat struct {
	ID         uint8
	Name       string
	Supernodes int64 // supernodes whose payloads use this codec
	Graphs     int64 // directory entries
	Bytes      int64 // encoded payload bytes
	Edges      int64 // edges stored in those payloads
}

// SizeBytes is the Table 1 accounting: index files plus the in-memory
// structures the paper counts (supernode graph with pointers, PageID
// index, domain index). The external↔internal permutation is an
// artifact of embedding the representation next to others that keep
// crawl IDs; the paper renumbers pages globally, so it is excluded (and
// reported separately by the harness).
func (s BuildStats) SizeBytes() int64 {
	return s.IndexFileBytes + s.SupernodeGraphBytes + s.PageIDIndexBytes + s.DomainIndexBytes
}

// CacheStats reports buffer-manager behaviour (used by Figure 12 and
// the §4.3 instrumentation that counts graphs loaded per query). Under
// the sharded buffer manager the counters are kept per shard and merged
// on read. Two identities hold over any quiescent interval (no resets,
// no failed decodes): Hits+Misses equals the total number of cache
// lookups, and Loads+Coalesced >= Misses — every miss either performed
// a decode (Loads) or was resolved by another goroutine's decode
// (Coalesced: waited on it in flight, or found it completed by claim
// time). The serving metrics and the concurrency tests assert both.
type CacheStats struct {
	Loads      int64
	Hits       int64
	Misses     int64
	Coalesced  int64 // misses resolved by another goroutine's decode
	Evictions  int64
	IntraLoads int64
	SuperLoads int64
	// Materialized counts graphs decoded whole out of their encoded
	// cache entries: a load leaves a graph encoded (a positive superedge
	// graph with its sources decoded), and a lookup that finds it so and
	// needs a list of it decodes them all. A materialization reads
	// nothing from disk and is not a load.
	Materialized int64
	// ListDecodes counts single lists decoded out of encoded entries: by
	// every lookup that missed the graph at its first probe — the one
	// that loaded it, one that waited on another lookup's load of it, and
	// one that found it cached by then — and by a hit whose whole decode
	// of it failed.
	ListDecodes int64
}

// AccessStatsExt extends the store-level stats with S-Node detail.
type AccessStatsExt struct {
	IO    iosim.Stats
	Cache CacheStats
}
