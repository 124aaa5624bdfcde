package corpusio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// writeCrawl writes the pages of a synthetic crawl of n pages to a
// temporary file and returns them and its path.
func writeCrawl(t *testing.T, n int) ([]webgraph.PageMeta, string) {
	t.Helper()
	crawl, err := synth.Generate(synth.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := Write(crawl.Corpus.Pages, path); err != nil {
		t.Fatal(err)
	}
	return crawl.Corpus.Pages, path
}

func TestWriteReadRoundTrip(t *testing.T) {
	pages, path := writeCrawl(t, 1200)
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pages) {
		t.Fatal("pages differ after round trip")
	}
}

func TestReadMissing(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadTruncated(t *testing.T) {
	_, path := writeCrawl(t, 500)
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
	_, path := writeCrawl(t, 300)
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

// TestReadAllocsPerPageNotPerTerm: Read allocates for each domain, and a
// constant beside them, whatever the number of pages and terms: the
// same crawl with every page's terms listed eight times over costs no
// more allocations.
func TestReadAllocsPerPageNotPerTerm(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	pages := crawl.Corpus.Pages
	domains := len(store.NewDomainRanges(pages))
	allocs := func(repeat int) float64 {
		repeated := make([]webgraph.PageMeta, len(pages))
		for i, pm := range pages {
			var terms []string
			for r := 0; r < repeat; r++ {
				webgraph.EachTerm(pm.Terms, func(t string) { terms = append(terms, t) })
			}
			repeated[i] = pm
			repeated[i].Terms = webgraph.JoinTerms(terms)
		}
		path := filepath.Join(t.TempDir(), "corpus.bin")
		if err := Write(repeated, path); err != nil {
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
	if limit := float64(2*domains + 100); once > limit {
		t.Errorf("Read allocates %.0f times, above %.0f for %d pages in %d domains", once, limit, len(pages), domains)
	}
	if eight > once+2 {
		t.Errorf("eight times the terms cost %.0f allocations against %.0f: Read allocates per term", eight, once)
	}
}

// TestReadHoldsTheFileOnce: the bytes Read allocates over a term-free
// crawl stay below twice the file plus 64 B a page. The file is read
// into the one string every field is parsed from (one copy), the URLs
// are copied into one block (most of a second), and each page's
// metadata takes 48 B; a second copy of the file, or a URL block grown
// by doubling, does not fit.
func TestReadHoldsTheFileOnce(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	pages := crawl.Corpus.Pages
	for i := range pages {
		pages[i].Terms = ""
	}
	path := filepath.Join(t.TempDir(), "corpus.bin")
	if err := Write(pages, path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Read(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*fi.Size()+64*int64(len(pages)))
	t.Logf("%d pages, a %d-byte file: Read allocated %d bytes (limit %d)", len(got), fi.Size(), alloc, limit)
	if alloc > limit {
		t.Errorf("Read allocated %d bytes for a %d-byte file of %d pages, above %d", alloc, fi.Size(), len(pages), limit)
	}
}

// page is one record of a hand-laid file.
type page struct {
	url, domain string
	terms       []string
}

// encode lays a file out by hand, so a case can hold bytes Write never
// produces: a page count, each page's URL, domain and terms, then
// whatever follows.
func encode(count int, pages []page, tail ...byte) []byte {
	out := binary.AppendUvarint(nil, uint64(count))
	str := func(s string) { out = append(binary.AppendUvarint(out, uint64(len(s))), s...) }
	for _, p := range pages {
		str(p.url)
		str(p.domain)
		out = binary.AppendUvarint(out, uint64(len(p.terms)))
		for _, t := range p.terms {
			str(t)
		}
	}
	return append(out, tail...)
}

// threePages is a valid file's pages, each domain given, each page with
// the one term "t".
func threePages(domains ...string) []page {
	var out []page
	for p, d := range domains {
		out = append(out, page{fmt.Sprintf("http://%s/%d", d, p), d, []string{"t"}})
	}
	return out
}

// withTerms is the valid file with its last page's terms replaced.
func withTerms(terms ...string) []byte {
	pages := threePages("example.com", "example.com", "example.net")
	pages[2].terms = terms
	return encode(3, pages)
}

// validFile is the three-page file the tests below start from.
func validFile() []byte {
	return encode(3, threePages("example.com", "example.com", "example.net"))
}

// TestHostileFilesAreRefused: Read answers bytes no Write produced with
// an error — never a panic, never pages. The named cases: a domain whose
// pages resume after another domain's (its domain range would hold its
// last run alone), pages without a URL or a domain, an empty term and a
// term holding the joined form's separator (neither would come back as
// itself from a page's joined terms), bytes after the last page, a page
// count the file cannot hold. A page's least record is
// three bytes (an empty URL, domain and term list), and the count is
// held to that: pages of three bytes get past it to the page check, one
// byte fewer and the count is refused. Then every strict prefix of the
// valid file.
func TestHostileFilesAreRefused(t *testing.T) {
	valid := validFile()
	path := filepath.Join(t.TempDir(), "corpus.bin")

	// The hand-laid bytes are Write's bytes, and load as the same pages.
	var want []webgraph.PageMeta
	for _, p := range threePages("example.com", "example.com", "example.net") {
		want = append(want, webgraph.PageMeta{URL: p.url, Domain: p.domain, Terms: "t"})
	}
	if err := Write(want, path); err != nil {
		t.Fatal(err)
	}
	if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, valid) {
		t.Fatalf("Write produced %x (err %v), the test's encoder %x", written, err, valid)
	}
	if got, err := Read(path); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the valid file loads as %v (err %v), want %v", got, err, want)
	}

	type hostile struct {
		name  string
		bytes []byte
		want  string // in the error
	}
	cases := []hostile{
		{"a domain reopened after another", encode(3, threePages("example.com", "example.net", "example.com")), "reopens example.com"},
		{"a page without a URL", encode(3, append(threePages("example.com", "example.com"), page{"", "example.com", nil})), "page 2 missing URL or domain"},
		{"a page without a domain", encode(3, append(threePages("example.com", "example.com"), page{"http://example.com/2", "", nil})), "page 2 missing URL or domain"},
		{"an empty term", withTerms("a", "", "b"), "page 2: a term must not be empty"},
		{"a term holding the separator", withTerms("a,b"), `page 2: term "a,b": a term must not hold ,`},
		{"bytes after the last page", append(valid, 0), "1 bytes after the last field"},
		{"page count the file cannot hold", binary.AppendUvarint(nil, 1<<30), "count 1073741824"},
		{"forty pages of three bytes", encode(40, nil, make([]byte, 3*40)...), "page 0 missing URL or domain"},
		{"forty pages in 119 bytes", encode(40, nil, make([]byte, 3*40-1)...), "count 40, at 3 bytes each"},
	}
	for n := 0; n < len(valid); n++ {
		cases = append(cases, hostile{fmt.Sprintf("truncated to %d bytes", n), valid[:n], ""})
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if pages, err := Read(path); err == nil {
			t.Errorf("%s: loaded as %d pages", c.name, len(pages))
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to say %q", c.name, err, c.want)
		}
	}
}

// FuzzCorpusRead: whatever the bytes, Read neither panics nor sizes
// anything beyond a multiple of the file, and pages it returns pass
// webgraph.ValidatePages and keep each domain's pages in its domain
// range. Seeds: the valid three-page file, every strict prefix of it,
// and (committed under testdata/fuzz) the hostile files that used to
// load — some in a layout that held links and a crawl order, which must
// now be refused as they stand.
func FuzzCorpusRead(f *testing.F) {
	valid := validFile()
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
		pages, err := Read(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			if verr := webgraph.ValidatePages(pages); verr != nil {
				t.Fatalf("Read returned pages ValidatePages refuses: %v", verr)
			}
			ranges := store.NewDomainRanges(pages)
			for p, pm := range pages {
				if !ranges[pm.Domain].Contains(webgraph.PageID(p)) {
					t.Fatalf("Read returned page %d of %s outside the domain's range %v", p, pm.Domain, ranges[pm.Domain])
				}
			}
		}
		// A page costs three bytes and sizes 48 B of metadata; a term
		// costs a byte and sizes a 16 B header in Read's scratch list;
		// the file is held once and read through a buffer no larger than
		// it, and its URLs and terms copied once; 4 KiB for the rest.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<10+64*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte file made Read allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}
