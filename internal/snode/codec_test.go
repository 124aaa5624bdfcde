package snode

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// keptCodecs are the codecs in wire-ID order, without the hole codecTable
// has at the retired ID.
func keptCodecs() []Codec {
	var out []Codec
	for _, cd := range codecTable {
		if cd != nil {
			out = append(out, cd)
		}
	}
	return out
}

// TestCodecRoundTrip pins encode→decode identity for every registered
// codec over every payload kind, across densities including empty and
// full lists.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opt := refenc.Options{Window: refenc.DefaultWindow}
	for _, cd := range keptCodecs() {
		for _, density := range []float64{0, 0.02, 0.3, 1} {
			for _, size := range []int{1, 3, 17, 64} {
				lists := randLists(rng, size, int32(size), density)
				name := fmt.Sprintf("%s/n%d/p%v", cd.Name(), size, density)
				niSize, njSize := int32(size), int32(size+7)

				blob, err := encodePayload(cd, nil, kindIntra, nil, lists, niSize, niSize, opt)
				if err != nil {
					t.Fatalf("%s: encode intra: %v", name, err)
				}
				g, err := decodeGraph(cd, kindIntra, blob, size, niSize, niSize)
				if err != nil {
					t.Fatalf("%s: decode intra: %v", name, err)
				}
				if !listsEqual(rows(g.(*decodedIntra).lists), lists) {
					t.Fatalf("%s: intra round trip mismatch", name)
				}

				tl := randLists(rng, size, njSize, density)
				srcs, nonEmpty := srcsAndLists(tl)
				blob, err = encodePayload(cd, nil, kindSuperPos, srcs, nonEmpty, niSize, njSize, opt)
				if err != nil {
					t.Fatalf("%s: encode superPos: %v", name, err)
				}
				if g, err = decodeGraph(cd, kindSuperPos, blob, len(srcs), niSize, njSize); err != nil {
					t.Fatalf("%s: decode superPos: %v", name, err)
				}
				gp := g.(*decodedSuperPos)
				if !reflect.DeepEqual(append([]int32{}, gp.srcs...), append([]int32{}, srcs...)) {
					t.Fatalf("%s: superPos srcs mismatch: %v vs %v", name, gp.srcs, srcs)
				}
				if !listsEqual(rows(gp.lists), nonEmpty) {
					t.Fatalf("%s: superPos lists mismatch", name)
				}

				blob, err = encodePayload(cd, nil, kindSuperNeg, nil, tl, niSize, njSize, opt)
				if err != nil {
					t.Fatalf("%s: encode superNeg: %v", name, err)
				}
				if g, err = decodeGraph(cd, kindSuperNeg, blob, size, niSize, njSize); err != nil {
					t.Fatalf("%s: decode superNeg: %v", name, err)
				}
				if !listsEqual(rows(g.(*decodedSuperNeg).lists), tl) {
					t.Fatalf("%s: superNeg round trip mismatch", name)
				}
			}
		}
	}
	// The framing's own check: a positive superedge graph has one list per
	// source.
	if _, err := encodePayload(paperCodec{}, nil, kindSuperPos, []int32{0}, nil, 1, 1, opt); err == nil {
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

func buildCodecRep(t testing.TB, codec string, pages int) (dir string) {
	t.Helper()
	crawl, err := synth.Generate(synth.DefaultConfig(pages))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	cfg := DefaultConfig()
	cfg.Codec = codec
	if _, err := Build(crawl.Corpus, cfg, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCodecBuildEquivalence builds the same corpus under every codec
// and pins: Verify passes, every page's full adjacency is row-identical
// to the paper build, and the artifact's recorded codec composition
// matches the setting.
func TestCodecBuildEquivalence(t *testing.T) {
	const pages = 900
	paperDir := buildCodecRep(t, CodecPaper, pages)
	paper, err := Open(paperDir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer paper.Close()
	want := scanGraph(t, paper)

	for _, codec := range []string{CodecLog} {
		dir := buildCodecRep(t, codec, pages)
		r, err := Open(dir, 1<<20, iosim.Model2002())
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: verify: %v", codec, err)
		}
		got := scanGraph(t, r)
		for p := int32(0); p < int32(pages); p++ {
			if !reflect.DeepEqual(want.Out(p), got.Out(p)) {
				t.Fatalf("%s: page %d adjacency differs", codec, p)
			}
		}
		stats := r.BuildStats().Codecs
		if len(stats) != 1 || stats[0].Name != codec {
			t.Fatalf("%s: recorded composition %+v", codec, stats)
		}
		var sn int64
		for _, cs := range stats {
			sn += cs.Supernodes
			if cs.Name == "" || cs.Graphs <= 0 || cs.Bytes <= 0 {
				t.Fatalf("%s: degenerate codec stat %+v", codec, cs)
			}
		}
		if sn != int64(r.Supernodes()) {
			t.Fatalf("%s: codec stats cover %d of %d supernodes", codec, sn, r.Supernodes())
		}
		r.Close()
	}
}

// TestCodecMetaRoundTrip pins that per-entry codec IDs survive
// meta.bin serialization.
func TestCodecMetaRoundTrip(t *testing.T) {
	dir := buildCodecRep(t, CodecLog, 400)
	m, err := readMeta(filepath.Join(dir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Directory {
		if m.Directory[i].Codec != codecIDLog {
			t.Fatalf("directory entry %d codec %d, want %d", i, m.Directory[i].Codec, codecIDLog)
		}
	}
	if len(m.Stats.Codecs) != 1 || m.Stats.Codecs[0].ID != codecIDLog {
		t.Fatalf("codec stats %+v", m.Stats.Codecs)
	}
}

// TestCodecNamesRejected pins the config error path: a name Build does
// not know — the two removed ones included — is refused with the two
// names it does, and the removal said.
func TestCodecNamesRejected(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zstd", "lz", "auto"} {
		cfg := DefaultConfig()
		cfg.Codec = name
		_, err := Build(crawl.Corpus, cfg, t.TempDir())
		if err == nil {
			t.Fatalf("codec %q accepted", name)
		}
		for _, want := range []string{name, CodecPaper, CodecLog, "lz and auto were removed"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("codec %q: error %q does not say %q", name, err, want)
			}
		}
	}
}

// TestMeasureDecode exercises the decode-cost instrument: every class
// reports positive graphs/bytes and a timing.
func TestMeasureDecode(t *testing.T) {
	dir := buildCodecRep(t, CodecLog, 600)
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

// TestCorruptIndexAllCodecs runs the corruption harness over a build of
// every codec: flipped payload bytes must never panic or escape the
// local ID bounds (checkLocalIDs is the oracle the fused checks are
// compared against).
func TestCorruptIndexAllCodecs(t *testing.T) {
	for _, codec := range CodecNames() {
		t.Run(codec, func(t *testing.T) {
			src := buildCodecRep(t, codec, 500)
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
				tryOpenAndReadChecked(t, dir, codec+" index byte flip")
			}
		})
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
	err := r.consult(ctx, e.I, -1, []needEntry{{gid: gid, j: e.J}}, func(gid GraphID, _ int32, g decodedGraph) error {
		if sg, ok := g.(*superPosSources); ok {
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
// The decoders validate inline (fused into each codec's decode loop);
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
