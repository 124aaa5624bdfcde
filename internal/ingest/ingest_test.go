package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"snode/internal/webgraph"
)

// writeDataset drops content into its own temp directory (so the
// manifest/URL-table sibling probes see only what the test placed) and
// returns the dataset path.
func writeDataset(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gzipBytes(t *testing.T, content string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParserHostileInputs is the table-driven gauntlet from the issue:
// comments, CRLF, duplicates, self-loops, sparse 64-bit IDs, and every
// malformed-line shape must either parse to the right graph or fail
// with a line-numbered error.
func TestParserHostileInputs(t *testing.T) {
	cases := []struct {
		name    string
		format  string
		data    string
		wantErr string
		check   func(t *testing.T, c *webgraph.Corpus, st *Stats)
	}{
		{
			name:   "comments and blank lines",
			format: FormatSNAP,
			data:   "# Directed graph\n% matrix-market style comment\n\n0 1\n1 2\n",
			check: func(t *testing.T, c *webgraph.Corpus, st *Stats) {
				if st.Comments != 3 || st.EdgeLines != 2 || st.Edges != 2 || st.Nodes != 3 {
					t.Fatalf("stats = %+v", st)
				}
			},
		},
		{
			name:   "crlf line endings",
			format: FormatSNAP,
			data:   "0\t1\r\n1\t2\r\n",
			check: func(t *testing.T, c *webgraph.Corpus, st *Stats) {
				if st.Edges != 2 || st.Nodes != 3 {
					t.Fatalf("stats = %+v", st)
				}
			},
		},
		{
			name:   "duplicate edges coalesce",
			format: FormatSNAP,
			data:   "0 1\n0 1\n1 0\n0 1\n",
			check: func(t *testing.T, c *webgraph.Corpus, st *Stats) {
				if st.Edges != 2 || st.DupEdges != 2 {
					t.Fatalf("stats = %+v", st)
				}
			},
		},
		{
			name:   "self loops are kept",
			format: FormatSNAP,
			data:   "0 0\n0 1\n",
			check: func(t *testing.T, c *webgraph.Corpus, st *Stats) {
				if st.SelfLoops != 1 || st.Edges != 2 {
					t.Fatalf("stats = %+v", st)
				}
				if out := c.Graph.Out(0); len(out) != 2 || out[0] != 0 || out[1] != 1 {
					t.Fatalf("Out(0) = %v", out)
				}
			},
		},
		{
			name:   "non-contiguous 64-bit ids compact deterministically",
			format: FormatSNAP,
			data:   "5 18446744073709551615\n18446744073709551615 1000000000000\n",
			check: func(t *testing.T, c *webgraph.Corpus, st *Stats) {
				// Dense IDs are ranks in the sorted raw-ID set:
				// 5 -> 0, 1000000000000 -> 1, 2^64-1 -> 2.
				if st.Nodes != 3 || st.Edges != 2 {
					t.Fatalf("stats = %+v", st)
				}
				if out := c.Graph.Out(0); len(out) != 1 || out[0] != 2 {
					t.Fatalf("Out(0) = %v, want [2]", out)
				}
				if out := c.Graph.Out(2); len(out) != 1 || out[0] != 1 {
					t.Fatalf("Out(2) = %v, want [1]", out)
				}
			},
		},
		{
			name:    "snap rejects three fields",
			format:  FormatSNAP,
			data:    "0 1\n0 1 2\n",
			wantErr: ":2:",
		},
		{
			name:    "snap rejects one field",
			format:  FormatSNAP,
			data:    "01\n",
			wantErr: ":1:",
		},
		{
			name:    "non-numeric id",
			format:  FormatSNAP,
			data:    "0 x\n",
			wantErr: "bad target id",
		},
		{
			name:    "negative id",
			format:  FormatSNAP,
			data:    "-1 2\n",
			wantErr: "bad source id",
		},
		{
			name:   "tsv with weights",
			format: FormatTSV,
			data:   "0\t1\t0.5\n1\t2\t3\n",
			check: func(t *testing.T, c *webgraph.Corpus, st *Stats) {
				if st.Edges != 2 || st.Nodes != 3 {
					t.Fatalf("stats = %+v", st)
				}
			},
		},
		{
			name:    "tsv rejects bad weight",
			format:  FormatTSV,
			data:    "0\t1\theavy\n",
			wantErr: "bad weight",
		},
		{
			name:    "tsv rejects four fields",
			format:  FormatTSV,
			data:    "0\t1\t2\t3\n",
			wantErr: "tab-separated",
		},
		{
			name:    "tsv rejects space separation",
			format:  FormatTSV,
			data:    "0 1\n",
			wantErr: "tab-separated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeDataset(t, "graph.txt", tc.data)
			crawl, st, err := Ingest(context.Background(), path, Options{Format: tc.format})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !st.SynthesizedMeta {
				t.Fatal("no URL table present, SynthesizedMeta should be set")
			}
			tc.check(t, crawl.Corpus, st)
		})
	}
}

// TestGzipTransparent: the same graph parses identically from plain and
// gzipped bytes.
func TestGzipTransparent(t *testing.T) {
	content := "0 1\n1 2\n2 0\n"
	plainCrawl, plainSt, err := Ingest(context.Background(),
		writeDataset(t, "graph.txt", content), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(t.TempDir(), "graph.txt.gz")
	if err := os.WriteFile(gzPath, gzipBytes(t, content), 0o644); err != nil {
		t.Fatal(err)
	}
	gzCrawl, gzSt, err := Ingest(context.Background(), gzPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plainCrawl.Corpus.Graph.Equal(gzCrawl.Corpus.Graph) {
		t.Fatal("gzip and plain parses diverge")
	}
	if plainSt.Edges != gzSt.Edges || plainSt.Nodes != gzSt.Nodes {
		t.Fatalf("stats diverge: %+v vs %+v", plainSt, gzSt)
	}
}

// TestTruncatedGzip: a cut-off gzip stream is an error, not a silently
// shorter graph.
func TestTruncatedGzip(t *testing.T) {
	var content strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&content, "%d %d\n", i, i+1)
	}
	gz := gzipBytes(t, content.String())
	path := filepath.Join(t.TempDir(), "graph.txt.gz")
	if err := os.WriteFile(path, gz[:len(gz)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ingest(context.Background(), path, Options{}); err == nil {
		t.Fatal("truncated gzip ingested without error")
	}
}

// TestChecksum: a sibling manifest verifies the dataset bytes; a wrong
// digest aborts the ingest.
func TestChecksum(t *testing.T) {
	content := "0 1\n1 2\n"
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(content))
	manifest := filepath.Join(dir, DefaultManifest)
	if err := os.WriteFile(manifest,
		[]byte(hex.EncodeToString(sum[:])+"  graph.txt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, st, err := Ingest(context.Background(), path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.ChecksumVerified {
		t.Fatal("manifest present but ChecksumVerified unset")
	}

	bad := strings.Repeat("0", 64)
	if err := os.WriteFile(manifest, []byte(bad+"  graph.txt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ingest(context.Background(), path, Options{}); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt manifest: err = %v, want checksum mismatch", err)
	}

	// An explicitly named manifest must exist.
	if _, _, err := Ingest(context.Background(), path, Options{
		Manifest: filepath.Join(dir, "absent.sha256"),
	}); err == nil {
		t.Fatal("missing explicit manifest accepted")
	}
}

// TestURLTableUniverse: the sidecar defines the node set — isolated
// pages exist, unknown edge endpoints are an error.
func TestURLTableUniverse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.txt")
	if err := os.WriteFile(path, []byte("10 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	table := "# PageId\tUrl\tDomain\tTerms\n" +
		"30\thttp://b.net/x\tb.net\t\n" +
		"10\thttp://a.com/1\ta.com\tweb,graph\n" +
		"20\thttp://a.com/2\ta.com\t\n"
	if err := os.WriteFile(filepath.Join(dir, DefaultURLTable), []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	crawl, st, err := Ingest(context.Background(), path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SynthesizedMeta {
		t.Fatal("URL table present but SynthesizedMeta set")
	}
	// Sorted raw IDs 10, 20, 30 -> dense 0, 1, 2; page 20 is isolated
	// but survives because the table defines the universe.
	if st.Nodes != 3 || st.Edges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if out := crawl.Corpus.Graph.Out(0); len(out) != 1 || out[0] != 2 {
		t.Fatalf("Out(0) = %v, want [2]", out)
	}
	pages := crawl.Corpus.Pages
	if pages[0].URL != "http://a.com/1" || pages[1].URL != "http://a.com/2" ||
		pages[2].Domain != "b.net" {
		t.Fatalf("pages misaligned: %+v", pages)
	}
	if len(pages[0].Terms) != 2 || pages[0].Terms[0] != "web" {
		t.Fatalf("terms = %v", pages[0].Terms)
	}

	// An endpoint outside the declared universe is an error.
	if err := os.WriteFile(path, []byte("10 30\n10 99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ingest(context.Background(), path, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not in the URL table") {
		t.Fatalf("unknown endpoint: err = %v", err)
	}
}

// TestSpillMatchesInMemory: a heap budget small enough to force sorted
// runs yields exactly the in-memory graph — for dense IDs, and for an
// ID-only graph whose raw IDs lie above 2^32 (one above 2^63), where the
// compaction table is merged from each run's endpoints as it is flushed.
func TestSpillMatchesInMemory(t *testing.T) {
	sparse := func(k int) uint64 {
		if k == 4999 {
			return 1<<63 + 5
		}
		return 1<<32 + uint64(k)*1000003
	}
	for _, tc := range []struct {
		name    string
		lines   int
		raw     func(k int) uint64
		minRuns int
	}{
		// 50k edge lines against the 43,690 a 1 MB budget buffers: two
		// runs; 100k: three.
		{"dense", 25000, func(k int) uint64 { return uint64(k) }, 2},
		{"sparse", 50000, sparse, 3},
	} {
		var content strings.Builder
		var edges []rawEdge
		for i := 0; i < tc.lines; i++ {
			for _, e := range [2]rawEdge{
				{tc.raw(i % 9973), tc.raw((i * 7) % 9973)},
				{tc.raw((i * 3) % 9973), tc.raw(i % 9973)},
			} {
				fmt.Fprintf(&content, "%d %d\n", e.s, e.d)
				edges = append(edges, e)
			}
		}
		data := content.String()
		ref, refSt, err := Ingest(context.Background(),
			writeDataset(t, "graph.txt", data), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if refSt.Runs != 0 {
			t.Fatalf("%s: in-memory mode spilled %d runs", tc.name, refSt.Runs)
		}
		spilled, st, err := Ingest(context.Background(),
			writeDataset(t, "graph.txt", data), Options{MaxHeapMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs < tc.minRuns {
			t.Fatalf("%s: budgeted mode wrote %d runs, want >= %d", tc.name, st.Runs, tc.minRuns)
		}
		if st.SpillBytes == 0 {
			t.Fatalf("%s: SpillBytes = 0 despite runs", tc.name)
		}
		if !ref.Corpus.Graph.Equal(spilled.Corpus.Graph) {
			t.Fatalf("%s: spilled and in-memory graphs diverge", tc.name)
		}
		if refSt.Nodes != st.Nodes || refSt.Edges != st.Edges || refSt.DupEdges != st.DupEdges {
			t.Fatalf("%s: stats diverge: %+v vs %+v", tc.name, refSt, st)
		}

		// Ingest does not return the compaction table: take it, and the CSR
		// arrays it indexes, from the spiller both ways.
		finalize := func(opt Options) (offsets []int64, targets []webgraph.PageID, table []uint64, st Stats) {
			sp := newSpiller(opt, false)
			defer sp.cleanup()
			for _, e := range edges {
				if err := sp.add(context.Background(), e.s, e.d, &st); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if offsets, targets, table, err = sp.finalize(context.Background(), &st, nil); err != nil {
				t.Fatal(err)
			}
			return offsets, targets, table, st
		}
		wantOff, wantTgt, wantTable, wantSt := finalize(Options{})
		gotOff, gotTgt, gotTable, gotSt := finalize(Options{MaxHeapMB: 1, SpillDir: t.TempDir()})
		if gotSt.Runs < tc.minRuns || gotSt.DupEdges != wantSt.DupEdges {
			t.Fatalf("%s: spiller stats %+v, in memory %+v", tc.name, gotSt, wantSt)
		}
		if !slices.Equal(gotTable, wantTable) || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotTgt, wantTgt) {
			t.Fatalf("%s: table or CSR diverge: %d/%d nodes, %d/%d targets", tc.name, len(gotTable), len(wantTable), len(gotTgt), len(wantTgt))
		}
		if last := wantTable[len(wantTable)-1]; tc.name == "sparse" && last != 1<<63+5 {
			t.Fatalf("sparse: the table ends at %d, want the ID above 2^63", last)
		}
	}
}

// TestSynthesizeMetaStable: synthesized metadata is a pure function of
// (index, pagesPerDomain) — domains are contiguous and directory
// buckets give URL split prefixes to work with.
func TestSynthesizeMetaStable(t *testing.T) {
	a := SynthesizeMeta(100, 40)
	b := SynthesizeMeta(100, 40)
	for i := range a {
		if a[i].URL != b[i].URL || a[i].Domain != b[i].Domain {
			t.Fatalf("meta %d differs between calls", i)
		}
	}
	if a[0].Domain != a[39].Domain || a[0].Domain == a[40].Domain {
		t.Fatalf("domain boundaries wrong: %q %q %q", a[0].Domain, a[39].Domain, a[40].Domain)
	}
	if a[0].URL == a[1].URL {
		t.Fatal("URLs not unique")
	}
}

// TestFormatValidation: unknown formats fail before any file I/O state
// is built up.
func TestFormatValidation(t *testing.T) {
	path := writeDataset(t, "graph.txt", "0 1\n")
	if _, _, err := Ingest(context.Background(), path, Options{Format: "csv"}); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("err = %v", err)
	}
}

// TestURLTableSizeHint: the "# Pages: N" header Export writes is a
// preallocation hint only — a lying or junk value must neither change
// what parses nor force an absurd allocation (the hint is clamped by
// the file's plausible row capacity).
func TestURLTableSizeHint(t *testing.T) {
	for _, hint := range []string{
		"# Pages: 2",
		"# Pages: 999999999999999999",
		"# Pages: not-a-number",
		"# Pages: -5",
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "graph.txt")
		if err := os.WriteFile(path, []byte("0 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		table := hint + "\n" +
			"0\thttp://a.com/1\ta.com\t\n" +
			"1\thttp://a.com/2\ta.com\t\n"
		if err := os.WriteFile(filepath.Join(dir, DefaultURLTable), []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
		crawl, st, err := Ingest(context.Background(), path, Options{})
		if err != nil {
			t.Fatalf("%q: %v", hint, err)
		}
		if st.Nodes != 2 || st.Edges != 1 || crawl.Corpus.Pages[1].URL != "http://a.com/2" {
			t.Fatalf("%q: stats = %+v, pages = %+v", hint, st, crawl.Corpus.Pages)
		}
	}
}
