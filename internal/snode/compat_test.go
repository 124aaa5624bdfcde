package snode

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
func writeMetaV1(t *testing.T, path string, m *meta) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mw := &metaWriter{w: bufio.NewWriterSize(f, 1<<20)}
	mw.uvarint(metaMagic)
	mw.uvarint(metaVersion1)
	mw.varint(int64(m.NumPages))
	mw.varint(m.NumEdges)
	mw.i32s(m.Perm)
	mw.i32s(m.Inv)
	mw.i32s(m.SnBase)
	mw.uvarint(uint64(len(m.Domains)))
	for _, d := range m.Domains {
		mw.str(d)
	}
	mw.i32s(m.DomFirstSN)
	mw.i64s(m.SuperOff)
	mw.i32s(m.SuperAdj)
	mw.i32s(m.SuperGID)
	mw.i32s(m.IntraGID)
	mw.uvarint(uint64(len(m.Directory)))
	for _, e := range m.Directory {
		mw.uvarint(uint64(e.Kind))
		mw.varint(int64(e.I))
		mw.varint(int64(e.J))
		mw.varint(int64(e.File))
		mw.varint(e.Offset)
		mw.varint(int64(e.NumBytes))
		mw.varint(int64(e.NumLists))
	}
	mw.i64s(m.FileSizes)
	st := &m.Stats
	mw.varint(int64(st.Supernodes))
	mw.varint(st.Superedges)
	mw.varint(st.SupernodeGraphBytes)
	mw.varint(st.IndexFileBytes)
	mw.varint(st.PageIDIndexBytes)
	mw.varint(st.DomainIndexBytes)
	mw.varint(st.PositiveSuperedges)
	mw.varint(st.NegativeSuperedges)
	mw.varint(int64(st.URLSplits))
	mw.varint(int64(st.ClusteredSplits))
	mw.varint(int64(st.BuildTime))
	if mw.err != nil {
		t.Fatal(mw.err)
	}
	if err := mw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
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
	cs := got.Codecs()
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
