package corpusio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

func TestWriteReadRoundTrip(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(1200))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := Write(crawl, path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Corpus.Graph.Equal(crawl.Corpus.Graph) {
		t.Fatal("graph differs after round trip")
	}
	for i := range crawl.Corpus.Pages {
		a, b := crawl.Corpus.Pages[i], got.Corpus.Pages[i]
		if a.URL != b.URL || a.Domain != b.Domain || len(a.Terms) != len(b.Terms) {
			t.Fatalf("page %d metadata differs", i)
		}
		for j := range a.Terms {
			if a.Terms[j] != b.Terms[j] {
				t.Fatalf("page %d term %d differs", i, j)
			}
		}
	}
	for i := range crawl.Order {
		if got.Order[i] != crawl.Order[i] {
			t.Fatalf("crawl order differs at %d", i)
		}
	}
}

func TestReadMissing(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadTruncated(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := Write(crawl, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestReadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.bin")
	if err := os.WriteFile(path, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadBitFlipsNoPanic(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := Write(crawl, path); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(clean); pos += 211 {
		buf := append([]byte(nil), clean...)
		buf[pos] ^= 0xFF
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte flip at %d: panic: %v", pos, r)
				}
			}()
			_, _ = Read(path) // error or wrong data: fine; panic: not
		}()
	}
}

// TestReadAllocsPerPageNotPerTerm: over an edge-free crawl, as a
// dataset's meta.bin is, Read allocates for each page and each domain,
// and a constant beside them, whatever the number of terms: the same
// crawl with every page's terms listed eight times over costs no more
// allocations.
func TestReadAllocsPerPageNotPerTerm(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	pages := crawl.Corpus.Pages
	edgeFree, err := webgraph.NewGraphCSR(make([]int64, len(pages)+1), nil)
	if err != nil {
		t.Fatal(err)
	}
	domains := 1
	for i := 1; i < len(pages); i++ {
		if pages[i].Domain != pages[i-1].Domain {
			domains++
		}
	}
	allocs := func(repeat int) float64 {
		c := webgraph.Corpus{Graph: edgeFree, Pages: make([]webgraph.PageMeta, len(pages))}
		for i, pm := range pages {
			c.Pages[i] = pm
			c.Pages[i].Terms = nil
			for r := 0; r < repeat; r++ {
				c.Pages[i].Terms = append(c.Pages[i].Terms, pm.Terms...)
			}
		}
		path := filepath.Join(t.TempDir(), "corpus.bin")
		if err := Write(&synth.Crawl{Corpus: &c, Order: crawl.Order}, path); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Read(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, eight := allocs(1), allocs(8)
	t.Logf("%d pages, %d domains: %.0f allocations with each page's terms once, %.0f with them eight times", len(pages), domains, once, eight)
	if limit := float64(len(pages) + 2*domains + 100); once > limit {
		t.Errorf("Read allocates %.0f times, above %.0f for %d pages in %d domains", once, limit, len(pages), domains)
	}
	if eight > once+2 {
		t.Errorf("eight times the terms cost %.0f allocations against %.0f: Read allocates per term", eight, once)
	}
}

// encode lays a three-page crawl file of domain a.com out by hand, so a
// case can hold bytes Write never produces: each page's adjacency as raw
// gaps, the crawl order as raw entries, then whatever follows.
func encode(gaps [3][]uint64, order []uint64, tail ...byte) []byte {
	return encodeDomains([3]string{"a.com", "a.com", "a.com"}, gaps, order, tail...)
}

// encodeDomains is encode with each page's domain given.
func encodeDomains(domains [3]string, gaps [3][]uint64, order []uint64, tail ...byte) []byte {
	var out []byte
	uvarint := func(v uint64) { out = binary.AppendUvarint(out, v) }
	str := func(s string) { uvarint(uint64(len(s))); out = append(out, s...) }
	uvarint(3)
	for p, g := range gaps {
		str(fmt.Sprintf("http://%s/%d", domains[p], p))
		str(domains[p])
		uvarint(1)
		str("t")
		uvarint(uint64(len(g)))
		for _, d := range g {
			uvarint(d)
		}
	}
	for _, p := range order {
		uvarint(p)
	}
	return append(out, tail...)
}

// TestHostileFilesAreRefused: Read answers bytes no Write produced with
// an error — never a panic, never a crawl. The named cases are the ones
// that used to load: a repeated target (the graph silently lost an
// edge), a gap whose int64 is negative (a descending list), a crawl
// order naming a page twice or a page that does not exist (used as an
// index by the layouts built from it), bytes after the order, a domain
// whose pages resume after another domain's (its domain range would
// hold its last run alone). Then every strict prefix of the valid file.
func TestHostileFilesAreRefused(t *testing.T) {
	validGaps := [3][]uint64{{2, 1}, nil, {1}} // 0:[1 2] 1:[] 2:[0]
	validOrder := []uint64{2, 0, 1}
	valid := encode(validGaps, validOrder)
	path := filepath.Join(t.TempDir(), "corpus.bin")

	// The hand-laid bytes are Write's bytes, and load as the same crawl.
	b := webgraph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 0)
	crawl := &synth.Crawl{Corpus: &webgraph.Corpus{Graph: b.Build()}, Order: []int32{2, 0, 1}}
	for p := 0; p < 3; p++ {
		crawl.Corpus.Pages = append(crawl.Corpus.Pages, webgraph.PageMeta{
			URL: fmt.Sprintf("http://a.com/%d", p), Domain: "a.com", Terms: []string{"t"}})
	}
	if err := Write(crawl, path); err != nil {
		t.Fatal(err)
	}
	if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, valid) {
		t.Fatalf("Write produced %x (err %v), the test's encoder %x", written, err, valid)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("the valid file is refused: %v", err)
	}
	if !got.Corpus.Graph.Equal(crawl.Corpus.Graph) || !slices.Equal(got.Order, crawl.Order) {
		t.Fatal("the valid file loads as a different crawl")
	}

	type hostile struct {
		name  string
		bytes []byte
	}
	cases := []hostile{
		{"zero gap repeats a target", encode([3][]uint64{{2, 0}, nil, {1}}, validOrder)},
		{"gap of 2^64-1 steps backwards", encode([3][]uint64{{3, 1<<64 - 1}, nil, {1}}, validOrder)},
		{"gap of 2^63 wraps negative", encode([3][]uint64{{1 << 63}, nil, {1}}, validOrder)},
		{"target beyond the pages", encode([3][]uint64{{2, 2}, nil, {1}}, validOrder)},
		{"order names a page that does not exist", encode(validGaps, []uint64{2, 0, 3})},
		{"order names a page twice", encode(validGaps, []uint64{2, 0, 0})},
		{"bytes after the order", encode(validGaps, validOrder, 0)},
		{"a domain reopened after another", encodeDomains([3]string{"a.com", "b.com", "a.com"}, validGaps, validOrder)},
		{"page count the file cannot hold", binary.AppendUvarint(nil, 1<<30)},
	}
	for n := 0; n < len(valid); n++ {
		cases = append(cases, hostile{fmt.Sprintf("truncated to %d bytes", n), valid[:n]})
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if crawl, err := Read(path); err == nil {
			t.Errorf("%s: loaded as a crawl of %d pages, %d edges", c.name, crawl.Corpus.Graph.NumPages(), crawl.Corpus.Graph.NumEdges())
		}
	}
}

// FuzzCorpusRead: whatever the bytes, Read neither panics nor sizes
// anything beyond a multiple of the file, and a crawl it returns passes
// the corpus's own Validate, keeps each domain's pages in its domain
// range, and has an order that is a permutation. Seeds:
// the three-page file above, every strict prefix of it, and (committed
// under testdata/fuzz) the hostile files that used to load.
func FuzzCorpusRead(f *testing.F) {
	valid := encode([3][]uint64{{2, 1}, nil, {1}}, []uint64{2, 0, 1})
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "corpus.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		crawl, err := Read(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			if verr := crawl.Corpus.Validate(); verr != nil {
				t.Fatalf("Read returned a corpus its own Validate refuses: %v", verr)
			}
			ranges := store.NewDomainRanges(crawl.Corpus.Pages)
			for p, pm := range crawl.Corpus.Pages {
				if !ranges[pm.Domain].Contains(webgraph.PageID(p)) {
					t.Fatalf("Read returned page %d of %s outside the domain's range %v", p, pm.Domain, ranges[pm.Domain])
				}
			}
			seen := make([]bool, len(crawl.Order))
			for _, p := range crawl.Order {
				if p < 0 || int(p) >= len(seen) || seen[p] {
					t.Fatalf("Read returned an order that is no permutation: %v", crawl.Order)
				}
				seen[p] = true
			}
		}
		// A page costs five bytes and sizes 56 B of metadata, 24 B of
		// adjacency header, 8 B of offset and 5 B of order; a one-byte
		// term sizes a 16 B header; 4 KiB for the file.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<10+64*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte file made Read allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}
