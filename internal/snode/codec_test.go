package snode

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"snode/internal/iosim"
	"snode/internal/refenc"
	"snode/internal/synth"
)

// randLists generates numLists sorted strictly-increasing lists over
// [0, bound), with density controlled by p.
func randLists(rng *rand.Rand, numLists int, bound int32, p float64) [][]int32 {
	lists := make([][]int32, numLists)
	for i := range lists {
		for v := int32(0); v < bound; v++ {
			if rng.Float64() < p {
				lists[i] = append(lists[i], v)
			}
		}
	}
	return lists
}

func srcsAndLists(lists [][]int32) (srcs []int32, nonEmpty [][]int32) {
	for i, l := range lists {
		if len(l) > 0 {
			srcs = append(srcs, int32(i))
			nonEmpty = append(nonEmpty, l)
		}
	}
	return srcs, nonEmpty
}

// TestCodecRoundTrip pins encode→decode identity over every payload
// kind, across densities including empty and full lists.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opt := refenc.Options{Window: refenc.DefaultWindow}
	for _, density := range []float64{0, 0.02, 0.3, 1} {
		for _, size := range []int{1, 3, 17, 64} {
			lists := randLists(rng, size, int32(size), density)
			name := fmt.Sprintf("n%d/p%v", size, density)
			niSize, njSize := int32(size), int32(size+7)

			blob, err := encodePayload(nil, kindIntra, nil, lists, niSize, niSize, opt)
			if err != nil {
				t.Fatalf("%s: encode intra: %v", name, err)
			}
			g, err := decodeGraph(kindIntra, blob, size, niSize, niSize)
			if err != nil {
				t.Fatalf("%s: decode intra: %v", name, err)
			}
			if !listsEqual(rows(g.(*decodedIntra).lists), lists) {
				t.Fatalf("%s: intra round trip mismatch", name)
			}

			tl := randLists(rng, size, njSize, density)
			srcs, nonEmpty := srcsAndLists(tl)
			blob, err = encodePayload(nil, kindSuperPos, srcs, nonEmpty, niSize, njSize, opt)
			if err != nil {
				t.Fatalf("%s: encode superPos: %v", name, err)
			}
			if g, err = decodeGraph(kindSuperPos, blob, len(srcs), niSize, njSize); err != nil {
				t.Fatalf("%s: decode superPos: %v", name, err)
			}
			gp := g.(*decodedSuperPos)
			if !reflect.DeepEqual(append([]int32{}, gp.srcs...), append([]int32{}, srcs...)) {
				t.Fatalf("%s: superPos srcs mismatch: %v vs %v", name, gp.srcs, srcs)
			}
			if !listsEqual(rows(gp.lists), nonEmpty) {
				t.Fatalf("%s: superPos lists mismatch", name)
			}

			blob, err = encodePayload(nil, kindSuperNeg, nil, tl, niSize, njSize, opt)
			if err != nil {
				t.Fatalf("%s: encode superNeg: %v", name, err)
			}
			if g, err = decodeGraph(kindSuperNeg, blob, size, niSize, njSize); err != nil {
				t.Fatalf("%s: decode superNeg: %v", name, err)
			}
			if !listsEqual(rows(g.(*decodedSuperNeg).lists), tl) {
				t.Fatalf("%s: superNeg round trip mismatch", name)
			}
		}
	}
	// The framing's own check: a positive superedge graph has one list per
	// source.
	if _, err := encodePayload(nil, kindSuperPos, []int32{0}, nil, 1, 1, opt); err == nil {
		t.Fatal("superPos payload with a source and no list encoded")
	}
}

// rows spells a decoded list set out as the [][]int32 the encoders take.
func rows(l refenc.Lists) [][]int32 {
	out := make([][]int32, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

func listsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func buildTestRep(t testing.TB, pages int) (dir string) {
	t.Helper()
	crawl, err := synth.Generate(synth.DefaultConfig(pages))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if _, err := Build(crawl.Corpus, DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCodecBuildEquivalence builds a corpus and pins: Verify passes,
// every page's full adjacency is row-identical to the corpus, and the
// codec-stats section meta.bin still carries is one paper entry that
// covers every supernode.
func TestCodecBuildEquivalence(t *testing.T) {
	const pages = 900
	crawl, err := synth.Generate(synth.DefaultConfig(pages))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(buildTestRep(t, pages), 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got := scanGraph(t, r)
	for p := int32(0); p < int32(pages); p++ {
		if !reflect.DeepEqual(crawl.Corpus.Graph.Out(p), got.Out(p)) {
			t.Fatalf("page %d adjacency differs", p)
		}
	}
	stats := r.BuildStats().Codecs
	if len(stats) != 1 || stats[0].Name != codecPaper || stats[0].Graphs <= 0 || stats[0].Bytes <= 0 {
		t.Fatalf("recorded composition %+v", stats)
	}
	if stats[0].Supernodes != int64(r.Supernodes()) {
		t.Fatalf("codec stats cover %d of %d supernodes", stats[0].Supernodes, r.Supernodes())
	}
}

// TestCodecMetaRoundTrip pins that the per-entry codec IDs and the codec
// stats survive meta.bin serialization as the paper codec's.
func TestCodecMetaRoundTrip(t *testing.T) {
	dir := buildTestRep(t, 400)
	m, err := readMeta(filepath.Join(dir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Directory {
		if m.Directory[i].Codec != codecIDPaper {
			t.Fatalf("directory entry %d codec %d, want %d", i, m.Directory[i].Codec, codecIDPaper)
		}
	}
	if len(m.Stats.Codecs) != 1 || m.Stats.Codecs[0].ID != codecIDPaper {
		t.Fatalf("codec stats %+v", m.Stats.Codecs)
	}
}

// TestMeasureDecode exercises the decode-cost instrument: every class
// reports positive graphs/bytes and a timing.
func TestMeasureDecode(t *testing.T) {
	dir := buildTestRep(t, 600)
	r, err := Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	costs, err := r.MeasureDecode(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) == 0 {
		t.Fatal("no decode-cost rows")
	}
	var graphs int64
	for _, dc := range costs {
		if dc.Graphs <= 0 || dc.Bytes <= 0 || dc.Ns <= 0 {
			t.Fatalf("degenerate row %+v", dc)
		}
		graphs += dc.Graphs
	}
	if int(graphs) != len(r.m.Directory) {
		t.Fatalf("rows cover %d of %d graphs", graphs, len(r.m.Directory))
	}
}

// TestCorruptIndexAllCodecs runs the corruption harness over a build:
// flipped payload bytes must never panic or escape the local ID bounds
// (checkLocalIDs is the oracle the fused checks are compared against).
//
// This and the other tests that once looped over the codecs run their
// body as the subtest named after the one wire format meta.bin records.
func TestCorruptIndexAllCodecs(t *testing.T) { t.Run(codecPaper, testCorruptIndexAllCodecs) }

func testCorruptIndexAllCodecs(t *testing.T) {
	src := buildTestRep(t, 500)
	data, err := os.ReadFile(filepath.Join(src, "graphs.000"))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos += 67 {
		pos := pos
		dir := corruptCopy(t, src, func(d string) {
			g := append([]byte(nil), data...)
			g[pos] ^= 0xFF
			if err := os.WriteFile(filepath.Join(d, "graphs.000"), g, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		tryOpenAndReadChecked(t, dir, "index byte flip")
	}
}

// tryOpenAndReadChecked is tryOpenAndRead plus the bounds oracle: any
// graph that still decodes after corruption must keep every local ID
// inside its space (the fused checks' contract).
func tryOpenAndReadChecked(t *testing.T, dir string, tag string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", tag, r)
		}
	}()
	rep, err := Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		return // rejected at open: fine
	}
	defer rep.Close()
	for gid := range rep.m.Directory {
		e := &rep.m.Directory[gid]
		g, err := loadWhole(rep, GraphID(gid))
		if err != nil {
			continue // rejected: fine
		}
		switch sg := g.(type) {
		case *decodedIntra:
			if err := checkLocalIDs(sg.lists.IDs, e.NumLists); err != nil {
				t.Fatalf("%s: graph %d: %v", tag, gid, err)
			}
		case *decodedSuperPos:
			niSize := rep.m.SnBase[e.I+1] - rep.m.SnBase[e.I]
			njSize := rep.m.SnBase[e.J+1] - rep.m.SnBase[e.J]
			if err := checkLocalIDs(sg.srcs, niSize); err != nil {
				t.Fatalf("%s: graph %d srcs: %v", tag, gid, err)
			}
			if err := checkLocalIDs(sg.lists.IDs, njSize); err != nil {
				t.Fatalf("%s: graph %d lists: %v", tag, gid, err)
			}
		case *decodedSuperNeg:
			njSize := rep.m.SnBase[e.J+1] - rep.m.SnBase[e.J]
			if err := checkLocalIDs(sg.lists.IDs, njSize); err != nil {
				t.Fatalf("%s: graph %d: %v", tag, gid, err)
			}
		}
	}
}

// loadWhole returns the whole decoded graph gid the way Verify sees it:
// through consult — from the cache, or read, decoded and admitted — with
// a positive superedge graph's lists materialized.
func loadWhole(r *Representation, gid GraphID) (decodedGraph, error) {
	ctx := context.Background()
	e := &r.m.Directory[gid]
	var whole decodedGraph
	err := r.consult(ctx, e.I, -1, []needEntry{{gid: gid, j: e.J}}, func(gid GraphID, _ int32, g decodedGraph, _ bool) error {
		if sg, ok := g.(*encodedGraph); ok {
			full, err := r.materialize(ctx, gid, sg)
			if err != nil {
				return err
			}
			g = full
		}
		whole = g
		return nil
	})
	return whole, err
}

// checkLocalIDs rejects lists whose entries escape the local ID space.
// The decoders validate inline (fused into each decode loop);
// this is the oracle the fuzz and corruption tests compare the fused
// checks against.
func checkLocalIDs(ids []int32, bound int32) error {
	for _, v := range ids {
		if v < 0 || v >= bound {
			return fmt.Errorf("local id %d outside [0,%d)", v, bound)
		}
	}
	return nil
}
