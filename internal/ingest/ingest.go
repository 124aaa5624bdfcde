// Package ingest reads real Web-graph datasets into the corpus model
// every representation in this repository is built from. Everything so
// far ran on internal/synth; this package is the door to the corpora
// the related work validates on — SNAP edge lists (web-Google and
// friends) and the GraphChallenge TSV family — with the operational
// hygiene a multi-hundred-MB download needs:
//
//   - Streaming, gzip-transparent parsing (magic-byte sniffing, so
//     both graph.txt and graph.txt.gz work) with comment/blank-line
//     handling and line-numbered errors for malformed input. The file
//     is cut into blocks of whole lines that every core tokenises and
//     the spiller takes back in file order, beside the URL table's own
//     read (parse.go), so the result is that of a serial parse.
//   - SHA-256 checksum verification against a sha256sum-style manifest
//     when one sits next to the dataset.
//   - Deterministic ID compaction: arbitrary (non-contiguous, 64-bit)
//     node IDs become dense int32 page IDs in ascending raw-ID order,
//     so the same input file always produces the same corpus.
//   - URL-table sidecar support, and stable URL/domain synthesis for
//     ID-only graphs (the common case for public edge lists) so the
//     partitioner's domain-locality machinery still has something to
//     bite on.
//   - A bounded-heap external-memory mode: when the edge working set
//     would exceed Options.MaxHeapMB, edges spill to disk in sorted
//     runs that a k-way merge replays into the final CSR arrays, so a
//     1M+ page corpus ingests under a configurable budget.
//
// The inverse direction, Export, writes any crawl back out as a SNAP
// style edge list plus URL-table sidecar and checksum manifest — the
// round-trip oracle the tests pin (synth → export → ingest must
// rebuild the identical corpus) and a way to exercise the 1M-page
// path without network access.
package ingest

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/synth"
	"snode/internal/trace"
	"snode/internal/webgraph"
	"snode/internal/workpool"
)

// Supported edge-list formats.
const (
	// FormatSNAP is the SNAP collection's plain edge list: one
	// "src<ws>dst" pair per line, '#' comment lines, whitespace
	// separated (web-Google.txt is the canonical instance).
	FormatSNAP = "snap"
	// FormatTSV is the GraphChallenge tab-separated family:
	// "src\tdst" or "src\tdst\tweight" per line; the weight is parsed
	// (it must be numeric) and discarded — the S-Node schemes model
	// unweighted hyperlinks.
	FormatTSV = "tsv"
)

// Formats lists the accepted Options.Format values.
func Formats() []string { return []string{FormatSNAP, FormatTSV} }

// Default sidecar file names probed next to the dataset.
const (
	// DefaultURLTable is the page-metadata sidecar
	// (id\turl\tdomain[\tcomma-joined-terms] per line). When present it
	// defines the node universe: every page in the table exists
	// (isolated pages included), and an edge endpoint missing from the
	// table is an error. Without one, ingestion of an ID-only graph
	// synthesizes stable page URLs instead (see SynthesizeMeta).
	DefaultURLTable = "urls.tsv"
	DefaultManifest = "manifest.sha256"
)

// synthPagesPerDomain is the granularity of synthesized domains for
// ID-only graphs, matching the synth generator.
const synthPagesPerDomain = 1200

// Options controls ingestion. The zero value ingests a SNAP file fully
// in memory with synthesized URLs.
type Options struct {
	// Format selects the parser (FormatSNAP when empty).
	Format string
	// MaxHeapMB bounds the ingestion working set: the raw-edge buffer
	// spills to disk in sorted runs once it would exceed this budget,
	// and the final merge streams the runs back. <= 0 disables
	// spilling (everything is sorted in memory). The budget governs
	// ingestion state only — the finished CSR graph and page metadata
	// are the irreducible output and sit on top of it.
	MaxHeapMB int
	// SpillDir holds the sorted runs; empty selects a temporary
	// directory. Run files are deleted as the merge consumes them.
	SpillDir string
	// Manifest is the path of a sha256sum-style checksum manifest.
	// Empty probes for DefaultManifest next to the dataset; when found
	// (or given), the dataset and URL-table bytes are verified against
	// it and a mismatch aborts the ingest.
	Manifest string
	// Metrics, when non-nil, receives ingest_* counters and spill
	// gauges.
	Metrics *metrics.Registry
	// IO, when non-nil, charges modeled spill writes and read-backs to
	// the accountant (paced under SetPace like every other modeled
	// access).
	IO *iosim.Accountant
}

// Stats reports what one ingest run saw.
type Stats struct {
	Lines     int64 // physical lines read
	Comments  int64 // comment + blank lines skipped
	EdgeLines int64 // parsed edge lines
	DupEdges  int64 // duplicate pairs coalesced away
	SelfLoops int64 // self-loop edges (retained; they occur on the Web)
	Nodes     int   // distinct pages after compaction
	Edges     int64 // distinct directed edges in the final graph
	// Spill accounting: Runs counts sorted runs written to disk (0 in
	// the in-memory mode), SpillBytes the total run bytes written.
	Runs       int
	SpillBytes int64
	// ChecksumVerified reports whether a manifest covered the dataset.
	ChecksumVerified bool
	// SynthesizedMeta reports whether page URLs were synthesized (no
	// URL-table sidecar).
	SynthesizedMeta bool
}

// Ingest reads the edge-list dataset at path and returns it as a crawl
// (corpus + page order) ready for repo.Build; Order is ascending page
// ID — for a real dataset the crawl sequence is unknown, and ascending
// compacted ID is the deterministic choice. See the package comment
// for the pipeline.
func Ingest(ctx context.Context, path string, opt Options) (*synth.Crawl, *Stats, error) {
	ctx, span := trace.Start(ctx, "ingest")
	defer span.End()

	format := opt.Format
	if format == "" {
		format = FormatSNAP
	}
	if format != FormatSNAP && format != FormatTSV {
		return nil, nil, fmt.Errorf("ingest: unknown format %q (one of: %s)", format, strings.Join(Formats(), ", "))
	}

	man, err := resolveManifest(path, opt.Manifest)
	if err != nil {
		return nil, nil, err
	}
	urlPath := probeURLTable(path)

	st := &Stats{ChecksumVerified: man != nil}

	// The URL table, when present, defines the node universe. It is read
	// beside the edge list — the spiller needs the universe only to
	// finalize — and its error, being the one a serial read would have
	// met first, is the one reported when both fail.
	var (
		universe []uint64
		metas    []webgraph.PageMeta
		tableErr error
		reading  sync.WaitGroup
	)
	pctx, stopParse := context.WithCancel(ctx)
	defer stopParse()
	if urlPath != "" {
		reading.Add(1)
		go func() {
			defer reading.Done()
			if universe, metas, tableErr = readURLTable(ctx, urlPath, man); tableErr != nil {
				stopParse()
			}
		}()
	}

	sp := newSpiller(opt, urlPath != "")
	defer sp.cleanup()

	pool := workpool.New(0)
	err = parseEdges(pctx, path, format, man, sp, st, pool, sp.blockBytes(parseWindow(pool)))
	reading.Wait()
	if tableErr != nil {
		return nil, nil, tableErr
	}
	if err != nil {
		return nil, nil, err
	}

	offsets, targets, ids, err := sp.finalize(ctx, st, universe)
	if err != nil {
		return nil, nil, err
	}
	g, err := webgraph.NewGraphCSR(offsets, targets)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	st.Nodes = g.NumPages()
	st.Edges = g.NumEdges()

	if metas == nil {
		metas = SynthesizeMeta(len(ids), synthPagesPerDomain)
		st.SynthesizedMeta = true
	}

	if opt.Metrics != nil {
		reg := opt.Metrics
		reg.Counter("ingest_lines").Add(st.Lines)
		reg.Counter("ingest_comment_lines").Add(st.Comments)
		reg.Counter("ingest_edge_lines").Add(st.EdgeLines)
		reg.Counter("ingest_dup_edges").Add(st.DupEdges)
		reg.Counter("ingest_self_loops").Add(st.SelfLoops)
		reg.Gauge("ingest_nodes").Set(int64(st.Nodes))
		reg.Gauge("ingest_edges").Set(st.Edges)
	}

	order := make([]webgraph.PageID, len(ids))
	for i := range order {
		order[i] = webgraph.PageID(i)
	}
	crawl := &synth.Crawl{
		Corpus: &webgraph.Corpus{Graph: g, Pages: metas},
		Order:  order,
	}
	if err := crawl.Corpus.Validate(); err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	span.SetAttr("nodes", int64(st.Nodes))
	span.SetAttr("edges", st.Edges)
	span.SetAttr("runs", int64(st.Runs))
	return crawl, st, nil
}

// maybeGunzip sniffs the gzip magic and inflates transparently.
func maybeGunzip(br *bufio.Reader) (io.Reader, error) {
	magic, err := br.Peek(2)
	if err != nil {
		if err == io.EOF {
			return br, nil // empty file: the scanner sees EOF
		}
		return nil, err
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		return gzip.NewReader(br)
	}
	return br, nil
}

// SynthesizeMeta builds stable page metadata for an ID-only graph:
// page i lives at
//
//	http://www.example-dDDDDD.net/dK/pageNNNNNNN.html
//
// where DDDDD = i/pagesPerDomain (so consecutive compacted IDs share a
// registered domain and urlutil.Domain recovers "example-dDDDDD.net"
// for the initial by-domain partition) and dK buckets the domain's
// pages into eight directories (so URL split still has prefixes to
// work with before clustered split takes over). The scheme depends
// only on (i, pagesPerDomain): re-ingesting the same dataset always
// yields the same corpus.
func SynthesizeMeta(n, pagesPerDomain int) []webgraph.PageMeta {
	metas := make([]webgraph.PageMeta, n)
	for i := 0; i < n; i++ {
		dom := i / pagesPerDomain
		k := i % pagesPerDomain
		dir := k * 8 / pagesPerDomain
		domain := fmt.Sprintf("example-d%05d.net", dom)
		metas[i] = webgraph.PageMeta{
			URL:    fmt.Sprintf("http://www.%s/d%d/page%07d.html", domain, dir, i),
			Domain: domain,
		}
	}
	return metas
}

// resolveManifest finds and parses the checksum manifest: an explicit
// path must exist; otherwise DefaultManifest next to the dataset is
// probed and silently skipped when absent.
func resolveManifest(dataset, explicit string) (manifest, error) {
	path := explicit
	if path == "" {
		probe := filepath.Join(filepath.Dir(dataset), DefaultManifest)
		if _, err := os.Stat(probe); err != nil {
			return nil, nil
		}
		path = probe
	}
	return readManifestFile(path)
}

// probeURLTable finds the page-metadata sidecar: DefaultURLTable next
// to the dataset, or "" when there is none.
func probeURLTable(dataset string) string {
	probe := filepath.Join(filepath.Dir(dataset), DefaultURLTable)
	if _, err := os.Stat(probe); err != nil {
		return ""
	}
	return probe
}
