package snode

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"snode/internal/iosim"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// A damaged representation must surface as an error (or, for payload
// bytes whose corruption still decodes, wrong data) — never a panic or
// a runaway allocation.

func buildTinyRep(t *testing.T) (dir string) {
	t.Helper()
	crawl, err := synth.Generate(synth.DefaultConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if _, err := Build(crawl.Corpus, DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// tryOpenAndRead opens the representation and reads every page,
// recovering from panics (which fail the test).
func tryOpenAndRead(t *testing.T, dir string, tag string) {
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
	var buf []webgraph.PageID
	for p := 0; p < rep.NumPages(); p++ {
		buf, _ = rep.Out(webgraph.PageID(p), buf[:0]) // errors are fine
	}
}

func corruptCopy(t *testing.T, src string, mutate func(path string)) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mutate(dst)
	return dst
}

func TestCorruptMetaNoPanic(t *testing.T) {
	src := buildTinyRep(t)
	meta, err := os.ReadFile(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a spread of byte positions (every ~97th to keep runtime sane).
	for pos := 0; pos < len(meta); pos += 97 {
		pos := pos
		dir := corruptCopy(t, src, func(d string) {
			m := append([]byte(nil), meta...)
			m[pos] ^= 0xFF
			if err := os.WriteFile(filepath.Join(d, "meta.bin"), m, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		tryOpenAndRead(t, dir, "meta byte flip")
	}
}

func TestTruncatedMetaNoPanic(t *testing.T) {
	src := buildTinyRep(t)
	meta, err := os.ReadFile(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{0, 1, 2, 3} {
		cut := len(meta) * frac / 4
		dir := corruptCopy(t, src, func(d string) {
			if err := os.WriteFile(filepath.Join(d, "meta.bin"), meta[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if _, err := Open(dir, 1<<20, iosim.Model2002()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestCorruptIndexFileNoPanic(t *testing.T) {
	src := buildTinyRep(t)
	data, err := os.ReadFile(filepath.Join(src, "graphs.000"))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(data); pos += 53 {
		pos := pos
		dir := corruptCopy(t, src, func(d string) {
			g := append([]byte(nil), data...)
			g[pos] ^= 0xFF
			if err := os.WriteFile(filepath.Join(d, "graphs.000"), g, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		tryOpenAndRead(t, dir, "index byte flip")
	}
}

func TestMissingIndexFile(t *testing.T) {
	src := buildTinyRep(t)
	dir := corruptCopy(t, src, func(d string) {
		if err := os.Remove(filepath.Join(d, "graphs.000")); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := Open(dir, 1<<20, iosim.Model2002()); err == nil {
		t.Fatal("missing index file accepted")
	}
}

// TestOpenRefusesContradictoryDirectory re-writes meta.bin so that the
// supernode graph and the directory disagree about a graph a lookup can
// reach, every range still valid. The first three cases used to open and
// serve — wrong rows from another graph, targets translated through
// another supernode's pages, a slice-bounds panic in Out; the others are
// one per condition Open checks. Each must be refused at Open with an
// error naming the supernode and the graph.
func TestOpenRefusesContradictoryDirectory(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if _, err := Build(crawl.Corpus, DefaultConfig(), src); err != nil {
		t.Fatal(err)
	}
	clean, err := readMeta(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// s: a supernode of at least two pages with at least two superedges,
	// the first of them (k) positive; neg: a negative superedge.
	s, neg := int32(-1), int64(-1)
	for sn := int32(0); int(sn) < clean.Stats.Supernodes; sn++ {
		lo, hi := clean.SuperOff[sn], clean.SuperOff[sn+1]
		if s < 0 && hi-lo >= 2 && clean.SnBase[sn+1]-clean.SnBase[sn] >= 2 &&
			clean.Directory[clean.SuperGID[lo]].Kind == kindSuperPos {
			s = sn
		}
		for k := lo; k < hi && neg < 0; k++ {
			if clean.Directory[clean.SuperGID[k]].Kind == kindSuperNeg {
				neg = k
			}
		}
	}
	if s < 0 || neg < 0 {
		t.Fatalf("fixture has no supernode with two superedges (%d) or no negative superedge (%d)", s, neg)
	}
	k := clean.SuperOff[s]
	other := (s + 1) % int32(clean.Stats.Supernodes) // another supernode, with graphs of its own
	size := clean.SnBase[s+1] - clean.SnBase[s]
	negFrom := clean.Directory[clean.SuperGID[neg]].I

	for name, tc := range map[string]struct {
		mutate    func(m *meta)
		supernode int32
		graph     GraphID
	}{
		"intranode pointer at one of the supernode's superedge graphs": {
			func(m *meta) { m.IntraGID[s] = m.SuperGID[k] }, s, clean.SuperGID[k]},
		"superedge relabelled to another supernode": {
			func(m *meta) { m.SuperAdj[k] = otherTarget(m, s) }, s, clean.SuperGID[k]},
		"superedge pointer at another supernode's graph": {
			func(m *meta) { m.SuperGID[k] = m.SuperGID[m.SuperOff[other]] }, s, clean.SuperGID[clean.SuperOff[other]]},
		"superedge pointer at an intranode graph": {
			func(m *meta) { m.SuperGID[k] = m.IntraGID[s] }, s, clean.IntraGID[s]},
		"intranode graph labelled with another supernode": {
			func(m *meta) { m.Directory[m.IntraGID[s]].I = other }, s, clean.IntraGID[s]},
		"intranode graph with a list too many": {
			func(m *meta) { m.Directory[m.IntraGID[s]].NumLists++ }, s, clean.IntraGID[s]},
		"superedge graph labelled with another source": {
			func(m *meta) { m.Directory[m.SuperGID[k]].I = other }, s, clean.SuperGID[k]},
		"superedge graph labelled with another target": {
			func(m *meta) { m.Directory[m.SuperGID[k]].J = otherTarget(m, s) }, s, clean.SuperGID[k]},
		"positive superedge graph without lists": {
			func(m *meta) { m.Directory[m.SuperGID[k]].NumLists = 0 }, s, clean.SuperGID[k]},
		"positive superedge graph with more lists than pages": {
			func(m *meta) { m.Directory[m.SuperGID[k]].NumLists = size + 1 }, s, clean.SuperGID[k]},
		"negative superedge graph with a list missing": {
			func(m *meta) { m.Directory[m.SuperGID[neg]].NumLists-- }, negFrom, clean.SuperGID[neg]},
		"superedge target repeated": {
			func(m *meta) { m.SuperAdj[k+1] = m.SuperAdj[k] }, s, clean.SuperGID[k+1]},
		"superedge targets descending": {
			func(m *meta) {
				m.SuperAdj[k], m.SuperAdj[k+1] = m.SuperAdj[k+1], m.SuperAdj[k]
				m.SuperGID[k], m.SuperGID[k+1] = m.SuperGID[k+1], m.SuperGID[k]
			}, s, clean.SuperGID[k]},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := readMeta(filepath.Join(src, "meta.bin"))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(m)
			dir := corruptCopy(t, src, func(d string) {
				if err := writeMeta(filepath.Join(d, "meta.bin"), m); err != nil {
					t.Fatal(err)
				}
			})
			rep, err := Open(dir, 1<<20, iosim.Model2002())
			if err == nil {
				rep.Close()
				t.Fatal("opened")
			}
			for _, want := range []string{fmt.Sprintf("supernode %d", tc.supernode), fmt.Sprintf("graph %d", tc.graph)} {
				if !regexp.MustCompile(`\b` + want + `\b`).MatchString(err.Error()) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

// otherTarget is a supernode that s has no superedge to (and is not s),
// so relabelling one of s's superedges to it keeps the targets distinct.
func otherTarget(m *meta, s int32) int32 {
	taken := map[int32]bool{s: true}
	for k := m.SuperOff[s]; k < m.SuperOff[s+1]; k++ {
		taken[m.SuperAdj[k]] = true
	}
	for j := int32(m.Stats.Supernodes) - 1; ; j-- {
		if !taken[j] {
			return j
		}
	}
}
