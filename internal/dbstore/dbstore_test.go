package dbstore

import (
	"sort"
	"testing"

	"snode/internal/iosim"
	"snode/internal/pager"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

func buildSmall(t testing.TB) (*webgraph.Corpus, *Rep) {
	t.Helper()
	crawl, err := synth.Generate(synth.DefaultConfig(1500))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(crawl.Corpus, dir, crawl.Order); err != nil {
		t.Fatal(err)
	}
	r, err := Open(crawl.Corpus, dir, 256<<10, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
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
				t.Fatalf("page %d mismatch", p)
			}
		}
	}
}

func TestRowChunking(t *testing.T) {
	// A page with more targets than one heap row holds must chunk and
	// reassemble.
	n := chunkTargets*2 + 37
	b := webgraph.NewBuilder(n + 1)
	for i := 1; i <= n; i++ {
		b.AddEdge(0, int32(i))
	}
	pages := make([]webgraph.PageMeta, n+1)
	for i := range pages {
		pages[i] = webgraph.PageMeta{URL: "http://x.com/p", Domain: "x.com"}
	}
	c := &webgraph.Corpus{Graph: b.Build(), Pages: pages}
	dir := t.TempDir()
	if err := Build(c, dir, nil); err != nil {
		t.Fatal(err)
	}
	r, err := Open(c, dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Out(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("chunked row returned %d of %d targets", len(got), n)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, q := range got {
		if q != int32(i+1) {
			t.Fatalf("target %d = %d", i, q)
		}
	}
}

func TestRIDPacking(t *testing.T) {
	cases := []RID{
		{Page: 0, Slot: 0},
		{Page: 1, Slot: 65535},
		{Page: 1 << 40, Slot: 7},
	}
	for _, rid := range cases {
		if got := ridFromKey(ridKey(rid)); got != rid {
			t.Fatalf("RID %+v round-trips to %+v", rid, got)
		}
	}
}

func TestHeapInsertGet(t *testing.T) {
	p := pager.Create(t.TempDir() + "/h.dat")
	h := newHeapFile(p)
	var rids []RID
	var rows [][]byte
	for i := 0; i < 5000; i++ {
		row := make([]byte, (i%300)+1)
		for j := range row {
			row[j] = byte(i + j)
		}
		rid, err := h.insert(row)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		rows = append(rows, row)
	}
	for i, rid := range rids {
		got, err := h.get(rid)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(got) != string(rows[i]) {
			t.Fatalf("row %d corrupted", i)
		}
	}
}

func TestHeapRejectsOversizeRow(t *testing.T) {
	p := pager.Create(t.TempDir() + "/h.dat")
	h := newHeapFile(p)
	if _, err := h.insert(make([]byte, maxRowSize+1)); err == nil {
		t.Fatal("oversize row accepted")
	}
}

func TestHeapBadRID(t *testing.T) {
	p := pager.Create(t.TempDir() + "/h.dat")
	h := newHeapFile(p)
	if _, err := h.insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.get(RID{Page: 0, Slot: 99}); err == nil {
		t.Fatal("bad slot accepted")
	}
}

func TestBufferPoolAccounting(t *testing.T) {
	_, r := buildSmall(t)
	r.ResetCache(64 << 10)
	var buf []webgraph.PageID
	if _, err := r.Out(10, buf); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.IO.Reads == 0 || st.GraphsLoaded == 0 {
		t.Fatalf("no page reads accounted: %+v", st)
	}
}

func TestFiltered(t *testing.T) {
	c, r := buildSmall(t)
	f := store.NewFilter(store.NewDomainRanges(c.Pages)["mit.edu"])
	var buf []webgraph.PageID
	for p := int32(0); p < 300; p += 7 {
		var err error
		buf, err = r.OutFiltered(p, f, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range buf {
			if c.Pages[q].Domain != "mit.edu" {
				t.Fatalf("filter leaked %s", c.Pages[q].Domain)
			}
		}
	}
}
