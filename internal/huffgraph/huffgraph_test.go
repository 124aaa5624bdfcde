package huffgraph

import (
	"sort"
	"testing"

	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

func buildSmall(t testing.TB) (*webgraph.Corpus, *Rep) {
	t.Helper()
	crawl, err := synth.Generate(synth.DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(crawl.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	return crawl.Corpus, r
}

func TestRoundTrip(t *testing.T) {
	c, r := buildSmall(t)
	var buf []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
		var err error
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			t.Fatalf("Out(%d): %v", p, err)
		}
		got := append([]webgraph.PageID(nil), buf...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := c.Graph.Out(p)
		if len(got) != len(want) {
			t.Fatalf("page %d: %d targets, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d mismatch at %d", p, i)
			}
		}
	}
}

func TestHighInDegreeGetsShortCode(t *testing.T) {
	// The §4 description: pages with higher in-degree get smaller codes.
	c, r := buildSmall(t)
	deg := c.Graph.InDegrees()
	hi, lo := int32(0), int32(0)
	for p := int32(1); int(p) < len(deg); p++ {
		if deg[p] > deg[hi] {
			hi = p
		}
		if deg[p] < deg[lo] {
			lo = p
		}
	}
	if deg[hi] <= deg[lo] {
		t.Skip("degenerate degree distribution")
	}
	if r.huff.CodeLen(hi) > r.huff.CodeLen(lo) {
		t.Fatalf("in-degree %d page has %d-bit code, in-degree %d page has %d-bit code",
			deg[hi], r.huff.CodeLen(hi), deg[lo], r.huff.CodeLen(lo))
	}
}

func TestCompressionBeatsRawPointers(t *testing.T) {
	c, r := buildSmall(t)
	bpe := store.BitsPerEdge(r, c.Graph.NumEdges())
	if bpe >= 32 {
		t.Fatalf("bits/edge = %.1f, not better than raw 32-bit IDs", bpe)
	}
}

func TestOutOfRange(t *testing.T) {
	_, r := buildSmall(t)
	if _, err := r.Out(-1, nil); err == nil {
		t.Fatal("negative page accepted")
	}
	if _, err := r.Out(webgraph.PageID(r.NumPages()), nil); err == nil {
		t.Fatal("past-end page accepted")
	}
}

func TestFilteredOut(t *testing.T) {
	c, r := buildSmall(t)
	f := store.NewFilter(store.NewDomainRanges(c.Pages)["stanford.edu"])
	var buf []webgraph.PageID
	for p := int32(0); p < 200; p++ {
		var err error
		buf, err = r.OutFiltered(p, f, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range buf {
			if c.Pages[q].Domain != "stanford.edu" {
				t.Fatalf("filter leaked %s", c.Pages[q].Domain)
			}
		}
	}
}
