package snode

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"snode/internal/bitio"
	"snode/internal/iosim"
	"snode/internal/raceflag"
	"snode/internal/randutil"
	"snode/internal/refenc"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// A lookup that loads a graph decodes only the list it wants out of the
// encoded entry; one that finds the entry cached decodes it whole. These
// tests pin that the two agree, payload by payload and page by page,
// and that a damaged list fails the same lookups whatever the cache
// holds.

// readPayload reads graph gid's payload bytes, bypassing the cache.
func readPayload(t *testing.T, r *Representation, gid GraphID) []byte {
	t.Helper()
	e := &r.m.Directory[gid]
	buf := make([]byte, e.NumBytes)
	if _, err := r.files[e.File].ReadAt(buf, e.Offset); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecodeListEqualsDecodeGraph decodes every list of every payload
// of the 400-page fixture on its own and compares it with the list of
// the whole decode: the targets, after what dst held, and the entries
// counted, the lists up to it under refenc's window strategy. A list
// decode allocates nothing once dst has room. Every payload kind must
// occur.
func TestDecodeListEqualsDecodeGraph(t *testing.T) {
	t.Run(paperFormat, testDecodeListEqualsDecodeGraph)
}

func testDecodeListEqualsDecodeGraph(t *testing.T) {
	r, err := Open(buildTestRep(t, 400), 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	prefix := []int32{-1}
	var lists [kindSuperNeg + 1]int
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		buf := readPayload(t, r, GraphID(gid))
		whole, err := r.decodePayload(e, buf)
		if err != nil {
			t.Fatal(err)
		}
		niSize, njSize := r.sizes(e)
		eg, err := newEncodedGraph(e.Kind, buf, int(e.NumLists), niSize, njSize)
		if err != nil {
			t.Fatal(err)
		}
		pages := niSize
		if e.Kind == kindIntra {
			pages = e.NumLists
		}
		checked := false
		for local := int32(0); local < pages; local++ {
			k := eg.listOf(local)
			if k < 0 {
				continue
			}
			got, n, err := eg.appendList(k, slices.Clone(prefix))
			if err != nil {
				t.Fatalf("graph %d (kind %d), page %d: %v", gid, e.Kind, local, err)
			}
			want, _ := appendTargets(whole, local, slices.Clone(prefix))
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d (kind %d), page %d: list alone %v, in the whole graph %v", gid, e.Kind, local, got, want)
			}
			stored, _ := storedLists(whole)
			if wantN := int(stored.Off[k+1]); n != wantN {
				t.Fatalf("graph %d (kind %d), page %d: %d entries decoded, want %d", gid, e.Kind, local, n, wantN)
			}
			lists[e.Kind]++
			if !checked && !raceflag.Enabled {
				checked = true
				dst := make([]int32, 0, len(got)+int(eg.bound))
				if allocs := testing.AllocsPerRun(5, func() { eg.appendList(k, dst) }); allocs != 0 {
					t.Fatalf("graph %d (kind %d): %.0f allocations to decode one list", gid, e.Kind, allocs)
				}
			}
		}
	}
	for kind, n := range lists[kindIntra:] {
		if kind += int(kindIntra); n == 0 {
			t.Errorf("no list of kind %d decoded: the fixture lacks the kind", kind)
		}
	}
}

// TestColdWarmAndDamagedReadsAgree reads every page of the fixture cold
// (the cache reset first: one list decoded out of each
// encoded entry), again at once (found encoded, decoded whole) and under
// a 4 KiB budget (mostly misses), and compares each with the CSR row.
// Then it damages one list of an intranode graph and everything after
// it: the pages whose lists come before it are served cold and warm —
// the warm lookup's whole decode fails and it falls back to its own list
// — later pages fail with the intranode decode error on every attempt,
// and Verify fails.
func TestColdWarmAndDamagedReadsAgree(t *testing.T) {
	t.Run(paperFormat, testColdWarmAndDamagedReadsAgree)
}

func testColdWarmAndDamagedReadsAgree(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	c := crawl.Corpus
	n := webgraph.PageID(c.Graph.NumPages())
	src := buildTestRep(t, 400)
	r, err := Open(src, 8<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	small, err := Open(src, 4<<10, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	var out []webgraph.PageID
	for p := webgraph.PageID(0); p < n; p++ {
		r.ResetCache(8 << 20)
		for _, rep := range []*Representation{r, r, small} {
			if out, err = rep.Out(p, out[:0]); err != nil {
				t.Fatalf("page %d: %v", p, err)
			}
			assertPageRows(t, c, p, out)
		}
	}
	if st := r.StatsExt().Cache; st.ListDecodes == 0 || st.Materialized == 0 {
		t.Fatalf("the reads went through one state only: %+v", st)
	}

	// The victim: the intranode graph with the most lists, damaged
	// from the start of its middle list on.
	victim := r.m.IntraGID[0]
	for _, gid := range r.m.IntraGID {
		if r.m.Directory[gid].NumLists > r.m.Directory[victim].NumLists {
			victim = gid
		}
	}
	e := &r.m.Directory[victim]
	if e.NumLists < 4 {
		t.Fatalf("the largest intranode graph has %d lists", e.NumLists)
	}
	whole, err := loadWhole(r, victim)
	if err != nil {
		t.Fatal(err)
	}
	broken := int32(e.NumLists / 2)
	stored, _ := storedLists(whole)
	bad, err := Open(corruptListsFrom(t, src, r, victim, rows(stored)[:broken]), 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	for local := int32(0); local < e.NumLists; local++ {
		p := r.m.Inv[r.m.SnBase[e.I]+local]
		bad.ResetCache(1 << 20)
		for attempt := 0; attempt < 2; attempt++ { // cold, then warm
			out, err = bad.Out(p, out[:0])
			switch {
			case local < broken && err != nil:
				t.Fatalf("page %d, list %d of %d, before the damaged list %d: attempt %d: %v", p, local, e.NumLists, broken, attempt, err)
			case local < broken:
				assertPageRows(t, c, p, out)
			case err == nil || !strings.Contains(err.Error(), "intranode decode"):
				t.Fatalf("page %d, list %d, at or after the damaged list %d: attempt %d: error %v, want the intranode decode error", p, local, broken, attempt, err)
			}
		}
		if g, ok := bad.cache.slotGraph(victim); !ok {
			t.Fatal("the damaged intranode graph did not stay resident")
		} else if _, encoded := g.(*encodedGraph); !encoded {
			t.Fatalf("the damaged intranode graph is resident as %T: its lists cannot have decoded", g)
		}
	}
	checkShardInvariants(t, bad.cache)
	if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), "intranode decode") {
		t.Fatalf("Verify on the damaged artifact: %v, want the intranode decode error", err)
	}
	if n := bad.InflightDecodes(); n != 0 {
		t.Fatalf("%d decodes left in flight", n)
	}
}

// corruptListsFrom writes a copy of the artifact in src whose intranode
// graph gid has every bit zeroed from the list after the given ones on:
// the lists before it are coded alone, so they fix where it starts, and
// zero bits end the stream in an overrun.
func corruptListsFrom(t *testing.T, src string, r *Representation, gid GraphID, before [][]int32) string {
	t.Helper()
	e := &r.m.Directory[gid]
	payload := readPayload(t, r, gid)
	w := bitio.NewWriter(0)
	opt := DefaultConfig().Refenc
	opt.TargetBound = uint64(e.NumLists)
	if _, err := refenc.EncodeLists(w, before, opt); err != nil {
		t.Fatal(err)
	}
	start := w.BitLen()
	if !slices.Equal(w.Bytes()[:start>>3], payload[:start>>3]) {
		t.Fatal("the lists before the damage do not encode to the payload's prefix")
	}
	if start&7 != 0 {
		payload[start>>3] &^= 0xFF >> uint(start&7)
	}
	clear(payload[(start+7)>>3:])
	return corruptCopy(t, src, func(d string) {
		f, err := os.OpenFile(indexFileName(d, e.File), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(payload, e.Offset); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGraphAdmittedAtMostOnce: a graph object carries its cache node, so
// the cache must never link one twice. A graph evicted, or reset out,
// and completed again, is served to its loader and its waiters but not
// admitted; nor is one materialized over another entry after it was
// admitted itself. Loads and materializations are counted either way.
func TestGraphAdmittedAtMostOnce(t *testing.T) {
	c, target, ids := oneShardCache(1000, 4)
	g := &stubGraph{size: 600}
	insertEntry(t, c, ids[0], g)
	putGraph(t, c, ids[1], 600) // evicts g
	if _, ok := c.slotGraph(ids[0]); ok {
		t.Fatal("the first graph was not evicted")
	}
	for _, id := range []GraphID{ids[0], ids[2]} {
		insertEntry(t, c, id, g)
		if _, ok := c.slotGraph(id); ok {
			t.Fatalf("graph %d: a graph admitted before was admitted again", id)
		}
		checkShardInvariants(t, c)
	}
	if st := c.statsMerged(); st.Loads != 4 {
		t.Fatalf("%d loads, want 4: a graph not admitted is loaded all the same", st.Loads)
	}
	c.reset(int64(cacheShards) * 1000)
	insertEntry(t, c, ids[0], g)
	if _, ok := c.slotGraph(ids[0]); ok {
		t.Fatal("a graph admitted before the reset was admitted again")
	}

	from := sourcesEntry(10, 100)
	insertEntry(t, c, ids[3], from)
	c.materialized(ids[3], from, from)
	if got, _ := c.slotGraph(ids[3]); got != decodedGraph(from) {
		t.Fatalf("materializing an entry into itself replaced it by %v", got)
	}
	checkShardInvariants(t, c)
	if st := c.statsMerged(); st.Loads != 2 || st.Materialized != 1 || target.resident != 1 {
		t.Fatalf("%+v, %d resident; want 2 loads, 1 materialization, the sources-only entry alone", st, target.resident)
	}
}

// findSource returns the index of srcLocal in the sorted source IDs of
// a positive superedge graph, or -1 when the page has no link through
// it: the binary search the read path's merge walk (seek) replaced.
func findSource(srcs []int32, srcLocal int32) int {
	lo, hi := 0, len(srcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if srcs[mid] < srcLocal {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(srcs) && srcs[lo] == srcLocal {
		return lo
	}
	return -1
}

// listOf returns the index of the list that holds the links of the page
// with local ID local (within Ni), or -1 when the graph holds none.
func (g *encodedGraph) listOf(local int32) int {
	if g.kind == kindSuperPos {
		return findSource(g.srcs, local)
	}
	return int(local)
}

// appendTargets appends to dst the local targets of the page with local
// ID local out of a whole graph: its intranode list, its list as a
// source of a positive superedge graph (none unless it is one), or every
// local Nj ID its complement list in a negative one leaves out.
func appendTargets(g decodedGraph, local int32, dst []int32) ([]int32, error) {
	switch sg := g.(type) {
	case *decodedIntra:
		return append(dst, sg.lists.At(int(local))...), nil
	case *decodedSuperPos:
		if k := findSource(sg.srcs, local); k >= 0 {
			dst = append(dst, sg.lists.At(k)...)
		}
		return dst, nil
	case *decodedSuperNeg:
		return appendComplement(dst, sg.lists.At(int(local)), sg.njSize), nil
	}
	return dst, fmt.Errorf("snode: graph is a %T", g)
}

// TestSeekMatchesBinarySearch holds the merge walk's step, galloping or
// not, to a binary search, from every start, for every ID.
func TestSeekMatchesBinarySearch(t *testing.T) {
	rng := randutil.NewRNG(5)
	for round := 0; round < 50; round++ {
		var srcs []int32
		for v := int32(0); v < 100; v++ {
			if rng.Intn(1+round%7) == 0 {
				srcs = append(srcs, v)
			}
		}
		for from := 0; from <= len(srcs); from++ {
			for local := int32(-1); local <= 101; local++ {
				want := from + sort.Search(len(srcs)-from, func(x int) bool { return srcs[from+x] >= local })
				for _, gallop := range []bool{false, true} {
					if got := seek(srcs, from, local, gallop); got != want {
						t.Fatalf("round %d: seek(%v, %d, %d, %v) = %d, want %d", round, srcs, from, local, gallop, got, want)
					}
				}
			}
		}
	}
}
