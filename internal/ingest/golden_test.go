package ingest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// genCrawl returns a small deterministic synthetic crawl.
func genCrawl(t *testing.T, pages int) *synth.Crawl {
	t.Helper()
	cfg := synth.DefaultConfig(pages)
	cfg.Seed = 20030226
	c, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameCorpus compares graphs and page metadata (terms order included).
func sameCorpus(t *testing.T, a, b *webgraph.Corpus) {
	t.Helper()
	if !a.Graph.Equal(b.Graph) {
		t.Fatal("graphs diverge")
	}
	if len(a.Pages) != len(b.Pages) {
		t.Fatalf("page counts diverge: %d vs %d", len(a.Pages), len(b.Pages))
	}
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			t.Fatalf("page %d diverges: %+v vs %+v", i, a.Pages[i], b.Pages[i])
		}
	}
}

// TestExportIngestRoundTrip: synth -> export -> ingest reproduces the
// corpus exactly (the URL-table sidecar carries everything but the
// crawl visit order), for both plain and gzipped exports.
func TestExportIngestRoundTrip(t *testing.T) {
	crawl := genCrawl(t, 1500)
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		res, err := Export(crawl.Corpus, dir, ExportOptions{Gzip: gz})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Ingest(context.Background(), res.GraphPath, Options{})
		if err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
		if !st.ChecksumVerified || st.SynthesizedMeta {
			t.Fatalf("gzip=%v: stats = %+v, want verified checksum and real metadata", gz, st)
		}
		sameCorpus(t, crawl.Corpus, got.Corpus)
	}
}

// TestRefusedExportLeavesNoTornTable: a URL the sidecar cannot carry
// fails the export part-way through urls.tsv. The edge list, complete by
// then, is all the directory holds — no table cut off at the bad page
// under its final name, no temporary file, no manifest vouching for it.
func TestRefusedExportLeavesNoTornTable(t *testing.T) {
	crawl := genCrawl(t, 1500)
	pages := append([]webgraph.PageMeta(nil), crawl.Corpus.Pages...)
	pages[1200].URL += "\tx"
	dir := t.TempDir()
	_, err := Export(&webgraph.Corpus{Graph: crawl.Corpus.Graph, Pages: pages}, dir, ExportOptions{})
	if err == nil || !strings.Contains(err.Error(), "page 1200") {
		t.Fatalf("err = %v, want page 1200's URL refused", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "graph.txt" {
		t.Fatalf("a refused export left %v, want graph.txt alone", ents)
	}
}

// dirFilesEqual asserts two build directories hold byte-identical
// files.
func dirFilesEqual(t *testing.T, a, b string) {
	t.Helper()
	ents, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	bents, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(bents) {
		t.Fatalf("%s has %d files, %s has %d", a, len(ents), b, len(bents))
	}
	for _, e := range ents {
		da, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("artifact %s differs between %s and %s", e.Name(), a, b)
		}
	}
}

// TestGoldenBuildEquivalence pins the end-to-end oracle: synth ->
// export -> ingest -> S-Node build produces byte-identical artifacts to
// the direct in-memory build of the same corpus, at every worker count,
// with the ingest heap budget engaged.
func TestGoldenBuildEquivalence(t *testing.T) {
	// 6000 pages is ~63k edges — past the 1 MB budget's ~44k-edge
	// buffer, so the ingest below genuinely spills sorted runs.
	crawl := genCrawl(t, 6000)
	ws := t.TempDir()

	dsDir := filepath.Join(ws, "dataset")
	res, err := Export(crawl.Corpus, dsDir, ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ingested, st, err := Ingest(context.Background(), res.GraphPath, Options{MaxHeapMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs == 0 {
		t.Fatal("1 MB budget did not spill; the external-memory path went untested")
	}
	sameCorpus(t, crawl.Corpus, ingested.Corpus)

	for _, workers := range []int{1, 4} {
		directDir := filepath.Join(ws, "direct", "w"+string(rune('0'+workers)))
		ingestDir := filepath.Join(ws, "ingest", "w"+string(rune('0'+workers)))
		dcfg := snode.DefaultConfig()
		dcfg.BuildWorkers = workers
		dcfg.Partition.Workers = workers
		if _, err := snode.Build(crawl.Corpus, dcfg, directDir); err != nil {
			t.Fatalf("workers=%d direct: %v", workers, err)
		}
		icfg := snode.DefaultConfig()
		icfg.BuildWorkers = workers
		icfg.Partition.Workers = workers
		if _, err := snode.Build(ingested.Corpus, icfg, ingestDir); err != nil {
			t.Fatalf("workers=%d ingest: %v", workers, err)
		}
		dirFilesEqual(t, directDir, ingestDir)
	}
}

// TestCommittedFixture guards the on-disk formats against drift: the
// checked-in dataset (sngen -pages 400) must keep
// ingesting with a verified checksum and real page metadata.
func TestCommittedFixture(t *testing.T) {
	crawl, st, err := Ingest(context.Background(),
		filepath.Join("testdata", "tiny", "graph.txt"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.ChecksumVerified {
		t.Fatal("fixture manifest not verified")
	}
	if st.SynthesizedMeta {
		t.Fatal("fixture URL table not picked up")
	}
	if st.Nodes != 400 || st.Edges != 3666 {
		t.Fatalf("fixture parsed to %d nodes / %d edges, want 400 / 3666", st.Nodes, st.Edges)
	}
	if crawl.Corpus.Pages[0].Domain == "" {
		t.Fatal("fixture page metadata empty")
	}
}
