package textindex

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"snode/internal/webgraph"
)

func sampleIndex() *Index {
	pages := []webgraph.PageMeta{
		{URL: "u0", Domain: "a.com", Terms: "apple,banana"},
		{URL: "u1", Domain: "a.com", Terms: "banana,cherry,banana"},
		{URL: "u2", Domain: "b.com", Terms: "apple,cherry"},
		{URL: "u3", Domain: "b.com", Terms: "mobile_networking"},
	}
	return Build(pages)
}

func TestLookup(t *testing.T) {
	idx := sampleIndex()
	post := idx.Lookup("banana")
	if len(post) != 2 || post[0] != 0 || post[1] != 1 {
		t.Fatalf("banana postings = %v", post)
	}
	if idx.Lookup("missing") != nil {
		t.Fatal("missing term returned postings")
	}
}

func TestDuplicateTermsCountedOnce(t *testing.T) {
	idx := sampleIndex()
	// Page 1 lists "banana" twice; postings must contain it once.
	post := idx.Lookup("banana")
	for i := 1; i < len(post); i++ {
		if post[i] == post[i-1] {
			t.Fatal("duplicate posting")
		}
	}
}

func TestPostingsSorted(t *testing.T) {
	idx := sampleIndex()
	for _, term := range []string{"apple", "banana", "cherry"} {
		post := idx.Lookup(term)
		for i := 1; i < len(post); i++ {
			if post[i] <= post[i-1] {
				t.Fatalf("%s postings unsorted: %v", term, post)
			}
		}
	}
}

func TestPagesWithAtLeast(t *testing.T) {
	idx := sampleIndex()
	got := idx.PagesWithAtLeast([]string{"apple", "banana", "cherry"}, 2, 0, 4)
	// Page 0: apple+banana, page 1: banana+cherry, page 2: apple+cherry.
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	got = idx.PagesWithAtLeast([]string{"apple", "mobile_networking"}, 2, 0, 4)
	if len(got) != 0 {
		t.Fatalf("expected none, got %v", got)
	}
	// Duplicate query terms must not double-count.
	got = idx.PagesWithAtLeast([]string{"apple", "apple"}, 2, 0, 4)
	if len(got) != 0 {
		t.Fatalf("duplicate terms double-counted: %v", got)
	}
}

// TestPagesWithAtLeastMatchesMapCount holds the counting merge to a
// map count over the same postings: random pages drawn from a small
// vocabulary, queries that repeat terms or name absent ones, ranges
// that are empty, partial or the whole corpus, and k from one to three.
func TestPagesWithAtLeastMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vocab := []string{"t0", "t1", "t2", "t3", "t4", "absent"}
	for trial := 0; trial < 100; trial++ {
		pages := make([]webgraph.PageMeta, rng.Intn(120))
		for i := range pages {
			pages[i].URL = fmt.Sprint("u", i)
			var terms []string
			for j := rng.Intn(5); j > 0; j-- {
				terms = append(terms, vocab[rng.Intn(len(vocab)-1)])
			}
			pages[i].Terms = webgraph.JoinTerms(terms)
		}
		idx := Build(pages)
		n := webgraph.PageID(len(pages))
		for q := 0; q < 20; q++ {
			terms := make([]string, rng.Intn(5))
			for i := range terms {
				terms[i] = vocab[rng.Intn(len(vocab))]
			}
			ranges := [][2]webgraph.PageID{{0, n}, {n / 2, n / 2}, {n, n + 10}}
			if n > 0 {
				a := webgraph.PageID(rng.Intn(int(n)))
				ranges = append(ranges, [2]webgraph.PageID{a, a + webgraph.PageID(rng.Intn(int(n-a)+1))})
			}
			for _, r := range ranges {
				for k := 1; k <= 3; k++ {
					counts := map[webgraph.PageID]int{}
					for i, term := range terms {
						if slices.Contains(terms[:i], term) {
							continue
						}
						for _, p := range idx.Lookup(term) {
							counts[p]++
						}
					}
					var want []webgraph.PageID
					for p, c := range counts {
						if c >= k && p >= r[0] && p < r[1] {
							want = append(want, p)
						}
					}
					slices.Sort(want)
					if got := idx.PagesWithAtLeast(terms, k, r[0], r[1]); !slices.Equal(got, want) {
						t.Fatalf("trial %d: PagesWithAtLeast(%q, %d, %d, %d) = %v, want %v", trial, terms, k, r[0], r[1], got, want)
					}
				}
			}
		}
	}
}

func TestLookupInRange(t *testing.T) {
	idx := sampleIndex()
	got := idx.LookupInRange("apple", 1, 4)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("range lookup = %v", got)
	}
	got = idx.LookupInRange("apple", 0, 4)
	if len(got) != 2 {
		t.Fatalf("full-range lookup = %v", got)
	}
	if got := idx.LookupInRange("apple", 3, 4); len(got) != 0 {
		t.Fatalf("empty range lookup = %v", got)
	}
}

func TestNumTermsAndSize(t *testing.T) {
	idx := sampleIndex()
	if idx.NumTerms() != 4 {
		t.Fatalf("NumTerms = %d", idx.NumTerms())
	}
	if idx.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
}

// TestBuildHoldsPostingsExactAndTermsOwn: every posting list is cut at
// its exact size (len == cap), and no term the index keeps points into
// the string the pages' joined terms were cut from (one block, as
// corpusio.Read cuts them), so a caller that drops its terms frees that
// string.
func TestBuildHoldsPostingsExactAndTermsOwn(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pages := make([]webgraph.PageMeta, 2000)
	var src strings.Builder
	ends := make([]int, len(pages))
	var terms []string
	for i := range pages {
		terms = terms[:0]
		for j := rng.Intn(8); j > 0; j-- {
			terms = append(terms, fmt.Sprintf("term%02d", rng.Intn(50)))
		}
		webgraph.WriteTerms(&src, terms)
		ends[i] = src.Len()
	}
	text := src.String()
	for i, from := 0, 0; i < len(pages); i++ {
		pages[i].Terms, from = text[from:ends[i]], ends[i]
	}
	idx := Build(pages)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	for term := range idx.ids {
		post := idx.Lookup(term)
		if len(post) != cap(post) {
			t.Errorf("%s: %d postings in a list of capacity %d", term, len(post), cap(post))
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); p >= lo && p < lo+uintptr(len(text)) {
			t.Errorf("%s: the index keeps a substring of the pages' terms", term)
		}
	}
	if idx.NumTerms() != 50 {
		t.Fatalf("NumTerms = %d, want 50", idx.NumTerms())
	}
}
