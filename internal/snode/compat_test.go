package snode

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"snode/internal/coding"
	"snode/internal/iosim"
)

// Backward compatibility: artifacts written before pluggable codecs
// (meta version 1, no codec IDs anywhere) must open and serve exactly
// as codec/paper, and artifacts from a future format must be rejected
// with explicit errors — unknown version, unknown codec ID — and one
// that names the retired codec with an error that says so.

// writeMetaV1 serializes m in the exact pre-codec version-1 layout:
// no per-entry codec byte, no codec stats section. The test owns this
// writer so the layout stays pinned even as writeMeta evolves.
func writeMetaV1(t testing.TB, path string, m *meta) {
	t.Helper()
	err := coding.WriteFile(path, func(w *coding.Writer) error {
		w.Uvarint(metaMagic)
		w.Uvarint(metaVersion1)
		w.Varint(int64(m.NumPages))
		w.Varint(m.NumEdges)
		writeInts(w, m.Perm)
		writeInts(w, m.Inv)
		writeInts(w, m.SnBase)
		w.Uvarint(uint64(len(m.Domains)))
		for _, d := range m.Domains {
			w.Str(d)
		}
		writeInts(w, m.DomFirstSN)
		writeInts(w, m.SuperOff)
		writeInts(w, m.SuperAdj)
		writeInts(w, m.SuperGID)
		writeInts(w, m.IntraGID)
		w.Uvarint(uint64(len(m.Directory)))
		for _, e := range m.Directory {
			w.Uvarint(uint64(e.Kind))
			w.Varint(int64(e.I))
			w.Varint(int64(e.J))
			w.Varint(int64(e.File))
			w.Varint(e.Offset)
			w.Varint(int64(e.NumBytes))
			w.Varint(int64(e.NumLists))
		}
		writeInts(w, m.FileSizes)
		st := &m.Stats
		w.Varint(int64(st.Supernodes))
		w.Varint(st.Superedges)
		w.Varint(st.SupernodeGraphBytes)
		w.Varint(st.IndexFileBytes)
		w.Varint(st.PageIDIndexBytes)
		w.Varint(st.DomainIndexBytes)
		w.Varint(st.PositiveSuperedges)
		w.Varint(st.NegativeSuperedges)
		w.Varint(int64(st.URLSplits))
		w.Varint(int64(st.ClusteredSplits))
		w.Varint(int64(st.BuildTime))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLegacyMetaV1ServesAsPaper downgrades a paper-codec artifact's
// meta.bin to version 1 and pins that it opens, verifies, and serves
// row-identically to the v2 artifact — the paper-codec payload bytes
// themselves are version-independent.
func TestLegacyMetaV1ServesAsPaper(t *testing.T) {
	src := buildCodecRep(t, CodecPaper, 700)
	m, err := readMeta(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := corruptCopy(t, src, func(d string) {
		writeMetaV1(t, filepath.Join(d, "meta.bin"), m)
	})

	want, err := Open(src, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := Open(legacy, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	defer got.Close()

	if err := got.Verify(); err != nil {
		t.Fatalf("v1 verify: %v", err)
	}
	for i := range got.m.Directory {
		if got.m.Directory[i].Codec != codecIDPaper {
			t.Fatalf("v1 entry %d read back codec %d", i, got.m.Directory[i].Codec)
		}
	}
	wg, err := want.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	gg, err := got.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < int32(want.NumPages()); p++ {
		if !reflect.DeepEqual(wg.Out(p), gg.Out(p)) {
			t.Fatalf("page %d adjacency differs between v1 and v2 reads", p)
		}
	}
	// The synthesized composition record: all supernodes paper, edge
	// counts unknown (zero) because v1 never recorded them.
	cs := got.BuildStats().Codecs
	if len(cs) != 1 || cs[0].Name != CodecPaper ||
		cs[0].Supernodes != int64(got.Supernodes()) || cs[0].Edges != 0 {
		t.Fatalf("synthesized v1 codec stats %+v", cs)
	}
}

// TestUnknownCodecIDRejected flips one directory entry to a codec ID
// from the future and pins the explicit open-time error.
func TestUnknownCodecIDRejected(t *testing.T) {
	src := buildCodecRep(t, CodecPaper, 400)
	m, err := readMeta(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	m.Directory[len(m.Directory)/2].Codec = 9
	bad := corruptCopy(t, src, func(d string) {
		if err := writeMeta(filepath.Join(d, "meta.bin"), m); err != nil {
			t.Fatal(err)
		}
	})
	_, err = Open(bad, 1<<20, iosim.Model2002())
	if err == nil {
		t.Fatal("unknown codec ID accepted")
	}
	if got := err.Error(); !contains(got, "unknown codec ID 9") {
		t.Fatalf("error %q does not name the codec ID", got)
	}
}

// TestRetiredCodecRefusedByName patches wire ID 1 — codec/lz, retired —
// into one directory entry, and into the codec stats, of a built store:
// Open refuses either with an error that says which codec that was and
// what to rebuild with, not "unknown codec ID … newer version?".
func TestRetiredCodecRefusedByName(t *testing.T) {
	src := buildCodecRep(t, CodecLog, 400)
	for name, patch := range map[string]func(m *meta){
		"directory entry": func(m *meta) { m.Directory[len(m.Directory)/2].Codec = codecIDLZ },
		"codec stats":     func(m *meta) { m.Stats.Codecs[0].ID = codecIDLZ },
	} {
		m, err := readMeta(filepath.Join(src, "meta.bin"))
		if err != nil {
			t.Fatal(err)
		}
		patch(m)
		bad := corruptCopy(t, src, func(d string) {
			if err := writeMeta(filepath.Join(d, "meta.bin"), m); err != nil {
				t.Fatal(err)
			}
		})
		_, err = Open(bad, 1<<20, iosim.Model2002())
		if err == nil {
			t.Fatalf("%s: retired codec ID accepted", name)
		}
		for _, want := range []string{"lz codec", "retired", "rebuild", CodecPaper, CodecLog} {
			if !contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", name, err, want)
			}
		}
		if contains(err.Error(), "newer version") {
			t.Errorf("%s: error %q takes the retired ID for a future one", name, err)
		}
	}
}

// TestUnknownMetaVersionRejected bumps the version field past
// metaVersion and pins the explicit error.
func TestUnknownMetaVersionRejected(t *testing.T) {
	src := buildCodecRep(t, CodecPaper, 400)
	raw, err := os.ReadFile(filepath.Join(src, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// The header is uvarint magic then uvarint version; metaVersion (2)
	// encodes as one byte directly after the magic's varint bytes.
	magicLen := uvarintLen(metaMagic)
	if raw[magicLen] != metaVersion {
		t.Fatalf("meta.bin version byte is %d, want %d", raw[magicLen], metaVersion)
	}
	raw[magicLen] = metaVersion + 1
	bad := corruptCopy(t, src, func(d string) {
		if err := os.WriteFile(filepath.Join(d, "meta.bin"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	_, err = Open(bad, 1<<20, iosim.Model2002())
	if err == nil {
		t.Fatal("future meta version accepted")
	}
	if got := err.Error(); !contains(got, "unsupported version") {
		t.Fatalf("error %q does not name the version problem", got)
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
