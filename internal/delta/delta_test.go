package delta

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"snode/internal/iosim"
	"snode/internal/metrics"
	"snode/internal/randutil"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// testBase is a minimal in-memory LinkStore for unit tests: sorted
// adjacency, no I/O.
type testBase struct {
	adj   [][]webgraph.PageID
	pages []webgraph.PageMeta
	stats store.AccessStats
}

func newTestBase(adj [][]webgraph.PageID, domains []string) *testBase {
	b := &testBase{adj: adj}
	for i, d := range domains {
		b.pages = append(b.pages, webgraph.PageMeta{
			URL:    fmt.Sprintf("http://%s/p%d", d, i),
			Domain: d,
		})
	}
	for _, l := range b.adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return b
}

func (b *testBase) Name() string  { return "test" }
func (b *testBase) NumPages() int { return len(b.adj) }
func (b *testBase) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return append(buf, b.adj[p]...), nil
}
func (b *testBase) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	for _, t := range b.adj[p] {
		if f.Accepts(t) {
			buf = append(buf, t)
		}
	}
	return buf, nil
}
func (b *testBase) Stats() store.AccessStats { return b.stats }
func (b *testBase) ResetStats()              { b.stats = store.AccessStats{} }
func (b *testBase) Close() error             { return nil }

// expected computes the reference adjacency: base with muts applied in
// order, latest op per pair winning.
func expected(base [][]webgraph.PageID, n int, muts []Mutation) []map[webgraph.PageID]bool {
	out := make([]map[webgraph.PageID]bool, n)
	for i := range out {
		out[i] = map[webgraph.PageID]bool{}
		if i < len(base) {
			for _, t := range base[i] {
				out[i][t] = true
			}
		}
	}
	for _, m := range muts {
		if m.Op == OpAdd {
			out[m.Src][m.Dst] = true
		} else {
			delete(out[m.Src], m.Dst)
		}
	}
	return out
}

func sortedSet(m map[webgraph.PageID]bool) []webgraph.PageID {
	out := make([]webgraph.PageID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func asSorted(l []webgraph.PageID) []webgraph.PageID {
	out := append([]webgraph.PageID(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func pageIDsEqual(a, b []webgraph.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newTestOverlay(t *testing.T, base *testBase) *Overlay {
	t.Helper()
	o, err := NewOverlay(base, Config{
		Pages: base.pages,
		Dir:   t.TempDir(),
		Model: iosim.Model2002(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	return o
}

// checkAll compares every page's overlay adjacency (as a set) against
// the reference model.
func checkAll(t *testing.T, o *Overlay, want []map[webgraph.PageID]bool, stage string) {
	t.Helper()
	var buf []webgraph.PageID
	for p := range want {
		var err error
		buf, err = o.Out(webgraph.PageID(p), buf[:0])
		if err != nil {
			t.Fatalf("%s: Out(%d): %v", stage, p, err)
		}
		seen := map[webgraph.PageID]bool{}
		for _, x := range buf {
			if seen[x] {
				t.Fatalf("%s: Out(%d) returned duplicate %d", stage, p, x)
			}
			seen[x] = true
		}
		if !pageIDsEqual(asSorted(buf), sortedSet(want[p])) {
			t.Fatalf("%s: Out(%d) = %v, want %v", stage, p, asSorted(buf), sortedSet(want[p]))
		}
	}
}

func testMutations(n int, rng interface{ Intn(int) int }, count int) []Mutation {
	muts := make([]Mutation, 0, count)
	for i := 0; i < count; i++ {
		m := Mutation{
			Src: webgraph.PageID(rng.Intn(n)),
			Dst: webgraph.PageID(rng.Intn(n)),
			Op:  OpAdd,
		}
		if rng.Intn(2) == 0 {
			m.Op = OpRemove
		}
		muts = append(muts, m)
	}
	return muts
}

func smallBase() *testBase {
	// Three domains, ten pages.
	domains := []string{
		"a.edu", "a.edu", "a.edu", "a.edu",
		"b.com", "b.com", "b.com",
		"c.org", "c.org", "c.org",
	}
	adj := [][]webgraph.PageID{
		{1, 4, 7}, {0, 2}, {3}, {},
		{5, 0}, {6}, {4, 9}, {8},
		{7, 1, 3}, {0},
	}
	return newTestBase(adj, domains)
}

func TestOverlayShadowing(t *testing.T) {
	base := smallBase()
	o := newTestOverlay(t, base)
	ctx := context.Background()

	muts := []Mutation{
		{Src: 0, Dst: 2, Op: OpAdd},    // new edge
		{Src: 0, Dst: 4, Op: OpRemove}, // shadow a base edge
		{Src: 0, Dst: 1, Op: OpAdd},    // add of an edge the base has
		{Src: 3, Dst: 9, Op: OpAdd},    // empty base list gains an edge
		{Src: 5, Dst: 6, Op: OpRemove}, // then re-added below
		{Src: 5, Dst: 6, Op: OpAdd},
		{Src: 7, Dst: 8, Op: OpRemove},
		{Src: 7, Dst: 8, Op: OpRemove}, // duplicate remove
		{Src: 9, Dst: 9, Op: OpRemove}, // remove of an absent edge
	}
	if err := o.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}
	want := expected(base.adj, base.NumPages(), muts)

	checkAll(t, o, want, "memtable")
	if err := o.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	if got := o.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount = %d after seal", got)
	}
	checkAll(t, o, want, "sealed")

	// A second batch reverses some of the first; seal again and merge.
	muts2 := []Mutation{
		{Src: 0, Dst: 4, Op: OpAdd}, // un-shadow
		{Src: 3, Dst: 9, Op: OpRemove},
		{Src: 2, Dst: 0, Op: OpAdd},
	}
	if err := o.Apply(ctx, muts2); err != nil {
		t.Fatal(err)
	}
	all := append(append([]Mutation(nil), muts...), muts2...)
	want = expected(base.adj, base.NumPages(), all)
	checkAll(t, o, want, "memtable-over-segment")

	if err := o.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	checkAll(t, o, want, "two-segments")

	did, err := o.MergeOnce(ctx)
	if err != nil || !did {
		t.Fatalf("MergeOnce = %v, %v", did, err)
	}
	if got := o.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount = %d after merge", got)
	}
	checkAll(t, o, want, "merged")

	ds := o.DeltaStatsNow()
	if ds.Seals != 2 || ds.Compactions != 1 || ds.AppliedOps != int64(len(all)) {
		t.Fatalf("stats = %+v", ds)
	}
}

func TestOverlayFilterPushdown(t *testing.T) {
	base := smallBase()
	o := newTestOverlay(t, base)
	ctx := context.Background()

	muts := []Mutation{
		{Src: 0, Dst: 8, Op: OpAdd},    // c.org target added
		{Src: 0, Dst: 3, Op: OpAdd},    // a.edu target added
		{Src: 0, Dst: 7, Op: OpRemove}, // c.org base target removed
	}
	if err := o.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}
	// Each filter is a shape of domain names and pages; the reference
	// accepts by those, not through the filter built from them.
	type shape struct {
		domains []string
		pages   []webgraph.PageID
	}
	ranges := store.NewDomainRanges(base.pages)
	check := func(stage string, sh *shape) {
		t.Helper()
		var f *store.Filter
		if sh != nil {
			var rs []store.DomainRange
			for _, d := range sh.domains {
				rs = append(rs, ranges[d])
			}
			for _, p := range sh.pages {
				rs = append(rs, store.DomainRange{Lo: p, Hi: p + 1})
			}
			f = store.NewFilter(rs...)
		}
		got, err := o.OutFiltered(0, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: unfiltered effective adjacency, filtered by the
		// shape.
		want := []webgraph.PageID{}
		eff := expected(base.adj, base.NumPages(), muts)[0]
		for _, tgt := range sortedSet(eff) {
			if sh == nil || slices.Contains(sh.domains, base.pages[tgt].Domain) || slices.Contains(sh.pages, tgt) {
				want = append(want, tgt)
			}
		}
		if !pageIDsEqual(asSorted(got), want) {
			t.Fatalf("%s: filtered = %v, want %v", stage, asSorted(got), want)
		}
	}
	shapes := []*shape{
		{domains: []string{"c.org"}},
		{domains: []string{"a.edu"}},
		{pages: []webgraph.PageID{8, 4}},
		{domains: []string{"b.com"}, pages: []webgraph.PageID{3}},
		nil,
	}
	for i, sh := range shapes {
		check(fmt.Sprintf("memtable/f%d", i), sh)
	}
	if err := o.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	for i, sh := range shapes {
		check(fmt.Sprintf("segment/f%d", i), sh)
	}
}

func TestOverlayAddPage(t *testing.T) {
	base := smallBase()
	o := newTestOverlay(t, base)
	ctx := context.Background()

	id, err := o.AddPage(webgraph.PageMeta{URL: "http://d.net/new", Domain: "d.net"})
	if err != nil || int(id) != base.NumPages() {
		t.Fatalf("AddPage id = %d, %v", id, err)
	}
	if o.NumPages() != base.NumPages()+1 {
		t.Fatalf("NumPages = %d", o.NumPages())
	}
	// New page starts with no links.
	got, err := o.Out(id, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("new page Out = %v, %v", got, err)
	}
	muts := []Mutation{
		{Src: id, Dst: 0, Op: OpAdd},
		{Src: 0, Dst: id, Op: OpAdd},
	}
	if err := o.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}
	got, err = o.Out(id, nil)
	if err != nil || !pageIDsEqual(got, []webgraph.PageID{0}) {
		t.Fatalf("new page Out = %v, %v", got, err)
	}
	got, err = o.Out(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range got {
		if x == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("page 0 missing link to added page: %v", got)
	}
	// The link survives a seal (the segment format holds IDs beyond the
	// base's range).
	if err := o.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = o.Out(id, nil)
	if err != nil || !pageIDsEqual(got, []webgraph.PageID{0}) {
		t.Fatalf("sealed new page Out = %v, %v", got, err)
	}
}

// TestAddPageKeepsDomainsContiguous: a page of a domain the base
// already has, after other domains' pages, is refused by name (the
// fold-back's corpus would reopen the domain, which its own Validate
// refuses), while pages of the last page's domain and of a new one are
// taken and fold back into a base that serves them.
func TestAddPageKeepsDomainsContiguous(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	pages := crawl.Corpus.Pages
	first, last := pages[0].Domain, pages[len(pages)-1].Domain
	if first == last {
		t.Fatalf("the fixture has one domain, %s", first)
	}
	dir := t.TempDir()
	if _, err := snode.Build(crawl.Corpus, snode.DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	rep, err := snode.Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	o, err := NewOverlay(rep, Config{Pages: pages, Dir: t.TempDir(), Model: iosim.Model2002()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if _, err := o.AddPage(webgraph.PageMeta{URL: "http://" + first + "/added", Domain: first}); err == nil || !strings.Contains(err.Error(), first) {
		t.Fatalf("a page reopening %s: err %v, want a refusal naming the domain", first, err)
	}
	if n := o.NumPages(); n != len(pages) {
		t.Fatalf("the refused page was counted: %d pages", n)
	}
	var added []webgraph.PageID
	for _, d := range []string{last, "new.example", "new.example"} {
		id, err := o.AddPage(webgraph.PageMeta{URL: fmt.Sprintf("http://%s/added%d", d, len(added)), Domain: d})
		if err != nil {
			t.Fatalf("a page of %s: %v", d, err)
		}
		added = append(added, id)
	}
	ctx := context.Background()
	if err := o.Apply(ctx, []Mutation{{Src: added[2], Dst: 0, Op: OpAdd}, {Src: 0, Dst: added[0], Op: OpAdd}}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.FoldBack(ctx, FoldConfig{SNode: snode.DefaultConfig(), Dir: t.TempDir(), CacheBudget: 1 << 20, Model: iosim.Model2002()}); err != nil {
		t.Fatalf("fold-back over contiguous domains: %v", err)
	}
	if got, err := o.Out(added[2], nil); err != nil || !pageIDsEqual(got, []webgraph.PageID{0}) {
		t.Fatalf("folded page %d: Out = %v, %v", added[2], got, err)
	}
}

// TestOverlaySharesBasePages: an overlay holds the base's metadata
// without copying it, and its first AddPage copies instead of writing
// into spare capacity of the caller's slice.
func TestOverlaySharesBasePages(t *testing.T) {
	base := smallBase()
	pages := make([]webgraph.PageMeta, len(base.pages), len(base.pages)+4)
	copy(pages, base.pages)
	o, err := NewOverlay(base, Config{Pages: pages, Dir: t.TempDir(), Model: iosim.Model2002()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if &o.pages[0] != &pages[0] {
		t.Fatal("NewOverlay copied the base's pages")
	}
	if _, err := o.AddPage(webgraph.PageMeta{URL: "http://d.net/new", Domain: "d.net"}); err != nil {
		t.Fatal(err)
	}
	if spare := pages[:len(pages)+1][len(pages)]; spare.URL != "" {
		t.Fatalf("AddPage wrote %s into the caller's spare capacity", spare.URL)
	}
}

// TestFoldBackLeavesTheBaseCacheAsItWas: a fold-back reads its base
// whole and then retires it, so the read fills no cache of the base's.
// Folding an overlay over a cold base reads every graph of it (its
// cache counts the loads) and leaves it holding nothing up to the swap.
func TestFoldBackLeavesTheBaseCacheAsItWas(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := snode.Build(crawl.Corpus, snode.DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	rep, err := snode.Open(dir, 64<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	reg := metrics.NewRegistry()
	rep.RegisterMetrics(reg, "base")
	o, err := NewOverlay(rep, Config{Pages: crawl.Corpus.Pages, Dir: t.TempDir(), Model: iosim.Model2002()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ctx := context.Background()
	if err := o.Apply(ctx, []Mutation{{Src: 0, Dst: 1, Op: OpAdd}}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.FoldBack(ctx, FoldConfig{SNode: snode.DefaultConfig(), Dir: t.TempDir(), CacheBudget: 64 << 20, Model: iosim.Model2002()}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if loads := snap.Counters["base_cache_loads"]; loads == 0 {
		t.Fatal("the fold-back read no graph of its base")
	}
	if used, entries := snap.Gauges["base_cache_bytes"], snap.Gauges["base_cache_entries"]; used != 0 || entries != 0 {
		t.Fatalf("the retired base's cache holds %d graphs, %d bytes, after the fold-back read it", entries, used)
	}
}

// TestFoldBackRefusesOtherBases: a fold-back reads its base whole with
// snode.Representation.Scan, so over any other store it fails, naming
// the store, before it seals a segment or writes a file.
func TestFoldBackRefusesOtherBases(t *testing.T) {
	o := newTestOverlay(t, smallBase())
	ctx := context.Background()
	if err := o.Apply(ctx, []Mutation{{Src: 0, Dst: 1, Op: OpAdd}}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, err := o.FoldBack(ctx, FoldConfig{SNode: snode.DefaultConfig(), Dir: dir, CacheBudget: 1 << 20, Model: iosim.Model2002()})
	if err == nil || !strings.Contains(err.Error(), `base "test" is not an S-Node representation`) {
		t.Fatalf("FoldBack over the test store: %v, want a refusal naming it", err)
	}
	if n := o.SegmentCount(); n != 0 {
		t.Fatalf("the refused fold-back sealed %d segments", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("the refused fold-back wrote %d entries", len(entries))
	}
}

func TestApplyValidation(t *testing.T) {
	o := newTestOverlay(t, smallBase())
	ctx := context.Background()
	bad := [][]Mutation{
		{{Src: -1, Dst: 0, Op: OpAdd}},
		{{Src: 0, Dst: 99, Op: OpAdd}},
		{{Src: 0, Dst: 0, Op: Op(7)}},
	}
	for i, muts := range bad {
		if err := o.Apply(ctx, muts); err == nil {
			t.Fatalf("case %d: Apply accepted invalid mutation", i)
		}
	}
	if _, err := o.Out(42, nil); err == nil {
		t.Fatal("Out accepted out-of-range page")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	rng := randutil.NewRNG(7)
	pos := []pageOps{}
	n := 500
	for src := 0; src < n; src += 1 + rng.Intn(5) {
		po := pageOps{src: webgraph.PageID(src)}
		for d := 0; d < 1+rng.Intn(20); d++ {
			op := OpAdd
			if rng.Intn(2) == 0 {
				op = OpRemove
			}
			po.ops = append(po.ops, dstOp{dst: webgraph.PageID(rng.Intn(n)), op: op})
		}
		sort.Slice(po.ops, func(a, b int) bool { return po.ops[a].dst < po.ops[b].dst })
		// Dedup (the memtable can't emit duplicate dsts).
		k := 0
		for i := range po.ops {
			if i == 0 || po.ops[i].dst != po.ops[i-1].dst {
				po.ops[k] = po.ops[i]
				k++
			}
		}
		po.ops = po.ops[:k]
		pos = append(pos, po)
	}
	path := filepath.Join(t.TempDir(), "seg.delta")
	if err := writeSegmentFile(path, pos); err != nil {
		t.Fatal(err)
	}
	acc := iosim.NewAccountant(iosim.Model2002())
	s, err := openSegment(path, acc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	ctx := context.Background()
	// all() reproduces the input exactly.
	got, err := s.all(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pos) {
		t.Fatalf("all: %d pages, want %d", len(got), len(pos))
	}
	for i := range pos {
		if got[i].src != pos[i].src || len(got[i].ops) != len(pos[i].ops) {
			t.Fatalf("all: page %d mismatch", i)
		}
		for j := range pos[i].ops {
			if got[i].ops[j] != pos[i].ops[j] {
				t.Fatalf("all: page %d op %d mismatch", i, j)
			}
		}
	}
	// Point lookups agree and are charged.
	before := acc.Stats().Reads
	for _, po := range pos {
		m := map[webgraph.PageID]Op{}
		read, err := s.opsInto(ctx, po.src, m)
		if err != nil || !read {
			t.Fatalf("opsInto(%d) = %v, %v", po.src, read, err)
		}
		if len(m) != len(po.ops) {
			t.Fatalf("opsInto(%d): %d ops, want %d", po.src, len(m), len(po.ops))
		}
		for _, e := range po.ops {
			if m[e.dst] != e.op {
				t.Fatalf("opsInto(%d): dst %d = %v, want %v", po.src, e.dst, m[e.dst], e.op)
			}
		}
	}
	if acc.Stats().Reads == before {
		t.Fatal("point lookups performed no charged reads")
	}
	// Missing sources probe without I/O.
	before = acc.Stats().Reads
	if _, ok := s.find(webgraph.PageID(n + 10)); ok {
		t.Fatal("find located a missing source")
	}
	if acc.Stats().Reads != before {
		t.Fatal("find performed I/O")
	}
}

func TestSegmentRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	acc := iosim.NewAccountant(iosim.Model2002())

	bad := filepath.Join(dir, "bad-magic.delta")
	if err := os.WriteFile(bad, []byte("NOTDELTAxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(bad, acc, 1); err == nil {
		t.Fatal("openSegment accepted bad magic")
	}

	trunc := filepath.Join(dir, "trunc.delta")
	if err := writeSegmentFile(trunc, []pageOps{{src: 0, ops: []dstOp{{dst: 1, op: OpAdd}}}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trunc, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(trunc, acc, 1); err == nil {
		t.Fatal("openSegment accepted truncated data region")
	}

	// Mutants of a valid two-source segment (index entries at byte 12 and
	// 28, data from byte 44), each refused by name: a bad index at open,
	// a bad op byte by the reads that decode it.
	valid := filepath.Join(dir, "valid.delta")
	if err := writeSegmentFile(valid, []pageOps{
		{src: 3, ops: []dstOp{{dst: 5, op: OpAdd}, {dst: 9, op: OpRemove}}},
		{src: 7, ops: []dstOp{{dst: 1, op: OpAdd}}},
	}); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(valid); err != nil {
		t.Fatal(err)
	}
	mutant := func(name string, edit func(b []byte)) string {
		b := slices.Clone(data)
		edit(b)
		path := filepath.Join(dir, name+".delta")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name string
		edit func(b []byte)
		want string
	}{
		{"negative-offset", func(b []byte) { binary.LittleEndian.PutUint64(b[36:], uint64(1<<64-5)) }, "negative block offset -5"},
		{"wrapping-offset", func(b []byte) { binary.LittleEndian.PutUint64(b[36:], 1<<63-1) }, "ends past the 15-byte data region"},
		{"unsorted-index", func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 2) }, "source 2 does not ascend from 3"},
	} {
		_, err := openSegment(mutant(c.name, c.edit), acc, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: openSegment error %v, want one saying %q", c.name, err, c.want)
		}
	}
	s, err := openSegment(mutant("bad-op", func(b []byte) { b[44+5+4] = 7 }), acc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if _, err := s.all(context.Background()); err == nil || !strings.Contains(err.Error(), "unknown op byte 7") {
		t.Errorf("bad-op: all error %v, want the unknown op byte", err)
	}
	if _, err := s.opsInto(context.Background(), 3, map[webgraph.PageID]Op{}); err == nil || !strings.Contains(err.Error(), "unknown op byte 7") {
		t.Errorf("bad-op: opsInto error %v, want the unknown op byte", err)
	}
}

func TestMemtableSealBarrier(t *testing.T) {
	// Writers hammer a memtable while it is sealed; every mutation that
	// apply() accepted must be in the snapshot, every rejected one must
	// not have mutated it.
	mt := newMemtable()
	const writers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := map[webgraph.PageID]bool{}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				src := webgraph.PageID(w*10000 + i)
				if mt.apply(Mutation{Src: src, Dst: 1, Op: OpAdd}) {
					mu.Lock()
					accepted[src] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	mt.seal()
	snap := mt.snapshot()
	wg.Wait()

	inSnap := map[webgraph.PageID]bool{}
	for _, po := range snap {
		inSnap[po.src] = true
	}
	// seal() returns only after in-flight appliers finish, so the
	// snapshot must contain at least every apply accepted before the
	// barrier; late accepts are impossible by construction (apply
	// checks the flag under the shard lock).
	mu.Lock()
	defer mu.Unlock()
	for src := range accepted {
		if !inSnap[src] {
			t.Fatalf("accepted mutation for src %d missing from snapshot", src)
		}
	}
	if int64(len(inSnap)) != mt.len() {
		t.Fatalf("entries = %d, snapshot = %d", mt.len(), len(inSnap))
	}
}

func TestOverlayStatsAndMetrics(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := snode.Build(crawl.Corpus, snode.DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	rep, err := snode.Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOverlay(rep, Config{
		Pages: crawl.Corpus.Pages,
		Dir:   t.TempDir(),
		Model: iosim.Model2002(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	defer rep.Close()

	ctx := context.Background()
	if err := o.Apply(ctx, []Mutation{{Src: 0, Dst: 5, Op: OpAdd}}); err != nil {
		t.Fatal(err)
	}
	if err := o.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	o.ResetStats()
	// A merged lookup reads base + segment; aggregated stats must
	// exceed the base's own accounting.
	if _, err := o.Out(0, nil); err != nil {
		t.Fatal(err)
	}
	agg, baseOnly := o.Stats(), rep.Stats()
	if agg.IO.BytesRead <= baseOnly.IO.BytesRead {
		t.Fatalf("aggregated bytes %d not above base %d", agg.IO.BytesRead, baseOnly.IO.BytesRead)
	}
	if agg.GraphsLoaded <= baseOnly.GraphsLoaded {
		t.Fatal("segment reads not counted as load units")
	}

	reg := metrics.NewRegistry()
	o.RegisterMetrics(reg, "delta")
	snap := reg.Snapshot()
	found := map[string]bool{}
	for name := range snap.Counters {
		found[name] = true
	}
	for name := range snap.Gauges {
		found[name] = true
	}
	for _, want := range []string{
		"delta_memtable_bytes", "delta_segments", "delta_compactions",
		"delta_applied_ops", "delta_merge_bytes_in", "delta_merge_bytes_out",
		"delta_io_reads",
	} {
		if !found[want] {
			t.Fatalf("metric %s not registered (have %v)", want, found)
		}
	}

	// Name and size reporting.
	if o.Name() != "snode+delta" {
		t.Fatalf("Name = %q", o.Name())
	}
	if o.SizeBytes() <= rep.SizeBytes() {
		t.Fatal("SizeBytes does not include the delta")
	}
}

func TestCompactorPolicy(t *testing.T) {
	base := smallBase()
	o := newTestOverlay(t, base)
	ctx := context.Background()

	c := &Compactor{o: o, cfg: CompactorConfig{
		SealBytes:   1, // any non-empty memtable seals
		MaxSegments: 2,
	}}
	c.cfg.defaults()
	rng := randutil.NewRNG(42)
	var all []Mutation
	for round := 0; round < 6; round++ {
		muts := testMutations(base.NumPages(), rng, 30)
		if err := o.Apply(ctx, muts); err != nil {
			t.Fatal(err)
		}
		all = append(all, muts...)
		if err := c.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if got := o.SegmentCount(); got > 2 {
			t.Fatalf("round %d: %d segments above tier limit", round, got)
		}
	}
	checkAll(t, o, expected(base.adj, base.NumPages(), all), "compacted")
	ds := o.DeltaStatsNow()
	if ds.Seals < 6 || ds.Compactions == 0 {
		t.Fatalf("stats = %+v", ds)
	}
	if ds.MemtableEntries != 0 {
		t.Fatalf("memtable not drained: %+v", ds)
	}
}

func TestCompactorBackground(t *testing.T) {
	base := smallBase()
	o := newTestOverlay(t, base)
	ctx := context.Background()

	var errMu sync.Mutex
	var bgErr error
	c := StartCompactor(ctx, o, CompactorConfig{
		Interval:    time.Millisecond,
		SealBytes:   1,
		MaxSegments: 2,
		OnError: func(err error) {
			errMu.Lock()
			bgErr = err
			errMu.Unlock()
		},
	})
	rng := randutil.NewRNG(9)
	var all []Mutation
	for i := 0; i < 20; i++ {
		muts := testMutations(base.NumPages(), rng, 10)
		if err := o.Apply(ctx, muts); err != nil {
			t.Fatal(err)
		}
		all = append(all, muts...)
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	errMu.Lock()
	if bgErr != nil {
		t.Fatalf("background error: %v", bgErr)
	}
	errMu.Unlock()
	checkAll(t, o, expected(base.adj, base.NumPages(), all), "background")
}
