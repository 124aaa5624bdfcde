package bench

import (
	"io"
	"strings"
	"testing"

	"snode/internal/query"
	"snode/internal/raceflag"
)

// tiny returns the smallest configuration that exercises every
// experiment path.
func tiny() Config {
	c := Default()
	c.Sizes = []int{3000, 6000}
	c.Table1Sizes = []int{3000}
	c.QuerySize = 6000
	c.QueryBudget = 64 << 10
	c.Trials = 1
	c.Out = io.Discard
	return c
}

func TestScalabilitySmoke(t *testing.T) {
	cfg := tiny()
	rows, err := Scalability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Sizes) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Supernodes <= 0 || r.Superedges <= 0 || r.SupernodeGraphBytes <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderScalability(cfg, rows)
	if !strings.Contains(sb.String(), "supernodes") {
		t.Fatal("render output missing header")
	}
}

func TestCompressionSmoke(t *testing.T) {
	cfg := tiny()
	rows, err := Compression(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BPE <= 0 || r.BPET <= 0 || r.Max8GB <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderCompression(cfg, rows)
	if !strings.Contains(sb.String(), "S-Node") {
		t.Fatal("render output missing scheme")
	}
}

func TestAccessSmoke(t *testing.T) {
	cfg := tiny()
	var rows []Table2Row
	// Each scheme's fastest random decode of three runs: one run races
	// the other packages' tests for the cores, and a stall in it says
	// nothing about the decoder.
	best := map[string]float64{}
	for run := 0; run < 3; run++ {
		var err error
		if rows, err = Access(cfg); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.SeqNsEdge <= 0 || r.RandNsEdge <= 0 {
				t.Fatalf("degenerate row %+v", r)
			}
			if b, ok := best[r.Scheme]; !ok || r.RandNsDecoded < b {
				best[r.Scheme] = r.RandNsDecoded
			}
		}
	}
	// The Table 2 shape: Huffman decodes fastest. (Skipped under the
	// race detector, whose instrumentation distorts relative decode
	// costs.)
	if !raceflag.Enabled && best["huffman"] > best["snode"] {
		t.Errorf("huffman decode (%f) slower than snode (%f), best of three runs each",
			best["huffman"], best["snode"])
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderAccess(cfg, rows)
	if !strings.Contains(sb.String(), "Huffman") {
		t.Fatal("render output missing scheme")
	}
}

func TestQueriesSmoke(t *testing.T) {
	cfg := tiny()
	res, err := Queries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4*6 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Nav <= 0 {
			t.Fatalf("non-positive nav time for %s Q%d", c.Scheme, c.Query)
		}
	}
	// The headline: S-Node far faster than the flat schemes.
	nav := map[query.ID]map[string]float64{}
	for _, c := range res.Cells {
		if nav[c.Query] == nil {
			nav[c.Query] = map[string]float64{}
		}
		nav[c.Query][c.Scheme] = float64(c.Nav)
	}
	for _, q := range query.All() {
		if nav[q]["snode"] >= nav[q]["files"] {
			t.Errorf("Q%d: snode not faster than files", q)
		}
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderQueries(cfg, res)
	if !strings.Contains(sb.String(), "reduction") {
		t.Fatal("render output missing reduction table")
	}
}

func TestBufferSweepSmoke(t *testing.T) {
	cfg := tiny()
	rows, err := BufferSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("%d sweep points", len(rows))
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderBufferSweep(cfg, rows)
	if !strings.Contains(sb.String(), "buffer") {
		t.Fatal("render output missing header")
	}
}

func TestAblationsSmoke(t *testing.T) {
	cfg := tiny()
	rows, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["window-8"].BitsPerEdge >= byName["window-0"].BitsPerEdge {
		t.Error("reference encoding shows no gain over plain gap coding")
	}
	if byName["partition-P0"].Supernodes >= byName["partition-full"].Supernodes {
		t.Error("refinement did not increase supernode count over P0")
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderAblations(cfg, rows)
	if !strings.Contains(sb.String(), "variant") {
		t.Fatal("render output missing header")
	}
}

func TestExactReferenceSmoke(t *testing.T) {
	cfg := tiny()
	row, err := ExactReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Graphs > 0 && (row.WindowBits <= 0 || row.ExactBits <= 0) {
		t.Fatalf("degenerate comparison %+v", row)
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderExactReference(cfg, row)
	if !strings.Contains(sb.String(), "Edmonds") {
		t.Fatal("render output missing header")
	}
}

func TestDiskModelSweepSmoke(t *testing.T) {
	cfg := tiny()
	rows, err := DiskModelSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// S-Node must win under every storage generation: by seek count on
	// the 2002 disk, by bytes transferred on flash.
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.2fx not above 1", r.Name, r.Speedup)
		}
	}
	var sb strings.Builder
	cfg.Out = &sb
	RenderDiskModelSweep(cfg, rows)
	if !strings.Contains(sb.String(), "speedup") {
		t.Fatal("render output missing header")
	}
}

func TestCrawlCacheReuse(t *testing.T) {
	cfg := tiny()
	a, err := cfg.Crawl(3000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Crawl(3000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("crawl cache did not reuse")
	}
	cfg2 := cfg
	cfg2.Seed++
	c, err := cfg2.Crawl(3000)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed reused cached crawl")
	}
}
