package ingest

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"snode/internal/store"
	"snode/internal/webgraph"
)

// exportTable exports crawl's graph with pages as its URL table and
// returns the table's path.
func exportTable(t *testing.T, g *webgraph.Graph, pages []webgraph.PageMeta) string {
	t.Helper()
	exp, err := Export(&webgraph.Corpus{Graph: g, Pages: pages}, t.TempDir(), ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return exp.URLTablePath
}

// TestURLTableAllocsPerPageNotPerTerm: readURLTable allocates a
// constant, the blocks its URLs and terms are copied into and nothing
// per line or per term: under a 32nd of the pages plus the domains plus
// a constant, and a table whose pages each list their terms eight times
// over costs only the blocks its extra bytes fill.
func TestURLTableAllocsPerPageNotPerTerm(t *testing.T) {
	crawl := genCrawl(t, 4000)
	pages := crawl.Corpus.Pages
	domains := len(store.NewDomainRanges(pages))
	allocs := func(repeat int) (float64, int) {
		repeated := make([]webgraph.PageMeta, len(pages))
		bytes := 0
		for i, pm := range pages {
			var terms []string
			for r := 0; r < repeat; r++ {
				webgraph.EachTerm(pm.Terms, func(t string) { terms = append(terms, t) })
			}
			repeated[i] = pm
			repeated[i].Terms = webgraph.JoinTerms(terms)
			bytes += len(pm.URL) + len(repeated[i].Terms)
		}
		path := exportTable(t, crawl.Corpus.Graph, repeated)
		return testing.AllocsPerRun(3, func() {
			if _, _, err := readURLTable(context.Background(), path, nil); err != nil {
				t.Fatal(err)
			}
		}), bytes
	}
	once, onceBytes := allocs(1)
	eight, eightBytes := allocs(8)
	t.Logf("%d pages, %d domains: %.0f allocations with each page's terms once (%d bytes), %.0f with them eight times (%d bytes)",
		len(pages), domains, once, onceBytes, eight, eightBytes)
	if limit := float64(len(pages)/32 + domains + 64); once > limit {
		t.Errorf("readURLTable allocates %.0f times, above %.0f for %d pages in %d domains", once, limit, len(pages), domains)
	}
	if limit := once + float64((eightBytes-onceBytes)/blockBytes+2); eight > limit {
		t.Errorf("eight times the terms cost %.0f allocations against %.0f, above %.0f: readURLTable allocates per term", eight, once, limit)
	}
}

// TestURLTableHoldsItsBytes: what readURLTable's pages keep alive is
// their URL and term bytes, a PageMeta each, a domain's name once a run
// and a small constant a page (16 B: the raw ID the universe keeps, and
// the chunks' unused tails), plus the last chunk's unused part. A string
// or a term list per line does not fit.
func TestURLTableHoldsItsBytes(t *testing.T) {
	crawl := genCrawl(t, 20000)
	path := exportTable(t, crawl.Corpus.Graph, crawl.Corpus.Pages)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	universe, pages, err := readURLTable(context.Background(), path, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	data := 0
	for i, pm := range pages {
		data += len(pm.URL) + len(pm.Terms)
		if i == 0 || pm.Domain != pages[i-1].Domain {
			data += len(pm.Domain)
		}
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(data + len(pages)*(int(unsafe.Sizeof(webgraph.PageMeta{}))+16) + blockBytes)
	t.Logf("%d pages, %d bytes of URLs, terms and domains: %d bytes held (limit %d)", len(pages), data, held, limit)
	if held > limit {
		t.Errorf("readURLTable's %d pages hold %d bytes, above %d for %d bytes of metadata", len(pages), held, limit, data)
	}
	runtime.KeepAlive(universe)
	runtime.KeepAlive(pages)
}

// TestURLTableRefusesAnEmptyTerm: a term field is the joined form as it
// stands, so one holding an empty term ("a,,b", or a separator at either
// end) is refused by the corpus validation ingest ends with.
func TestURLTableRefusesAnEmptyTerm(t *testing.T) {
	for _, terms := range []string{"a,,b", ",a", "a,"} {
		dir := t.TempDir()
		path := filepath.Join(dir, "graph.txt")
		table := "1\thttp://a.com/1\ta.com\t" + terms + "\n2\thttp://a.com/2\ta.com\tb\n"
		if err := os.WriteFile(path, []byte("1 2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, DefaultURLTable), []byte(table), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Ingest(context.Background(), path, Options{}); err == nil || !strings.Contains(err.Error(), "page 0: terms") {
			t.Errorf("terms %q: err = %v, want page 0's empty term refused", terms, err)
		}
	}
}
