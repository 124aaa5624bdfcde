package snode

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"snode/internal/webgraph"
)

// meta.bin is the first thing every server opens, and readMeta is what
// every lookup then trusts. These tests hold it to what the shared
// reader promises: a length prefix sizes nothing before it has been held
// against the file, a value too wide for its field is refused, nothing
// follows the last field.

// allocatedBy reports the heap bytes fn allocated (freed or not).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readMetaBytes runs readMeta over raw and returns what it allocated.
func readMetaBytes(t testing.TB, raw []byte) (m *meta, alloc uint64, err error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "meta.bin")
	if werr := os.WriteFile(path, raw, 0o644); werr != nil {
		t.Fatal(werr)
	}
	alloc = allocatedBy(func() { m, err = readMeta(path) })
	return m, alloc, err
}

// tinyMeta returns the meta.bin of a six-page, two-domain build (about a
// hundred bytes).
func tinyMeta(t testing.TB) []byte {
	t.Helper()
	b := webgraph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 4}, {3, 4}, {4, 5}, {5, 0}, {3, 0}} {
		b.AddEdge(e[0], e[1])
	}
	c := &webgraph.Corpus{Graph: b.Build()}
	for p := 0; p < 6; p++ {
		d := []string{"example.com", "example.net"}[p/3]
		c.Pages = append(c.Pages, webgraph.PageMeta{URL: fmt.Sprintf("http://www.%s/%d.html", d, p), Domain: d})
	}
	dir := t.TempDir()
	if _, err := Build(c, DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// hostileCount is the twelve bytes that used to cost 513 MiB: a valid
// header, no pages, no edges, and a permutation that claims 2^27 entries.
func hostileCount() []byte {
	b := binary.AppendUvarint(nil, metaMagic)
	b = binary.AppendUvarint(b, metaVersion)
	b = binary.AppendVarint(b, 0)
	b = binary.AppendVarint(b, 0)
	return binary.AppendUvarint(b, 1<<27)
}

func TestLengthPrefixSizesNoAllocation(t *testing.T) {
	raw := hostileCount()
	if len(raw) != 12 {
		t.Fatalf("the probe is %d bytes, want 12", len(raw))
	}
	best := time.Hour
	for i := 0; i < 3; i++ { // the fastest of three: the host is shared
		start := time.Now()
		_, alloc, err := readMetaBytes(t, raw)
		if d := time.Since(start); d < best {
			best = d
		}
		if err == nil || !strings.Contains(err.Error(), "count 134217728") {
			t.Fatalf("err = %v, want a refusal naming the count", err)
		}
		if alloc > 4<<10 {
			t.Fatalf("refusing a %d-byte file allocated %d bytes", len(raw), alloc)
		}
	}
	if best > 10*time.Millisecond {
		t.Fatalf("refusing a %d-byte file took %v", len(raw), best)
	}
}

// TestDirectoryCountBoundIsSevenBytes: a directory entry's least record
// is seven one-byte fields, and the directory's count is held to that.
// The hand-laid file below is valid — no pages, no supernodes, and 40
// intranode entries of seven bytes each in one empty index file — and
// reads back; at eight bytes an entry its count would be refused, since
// 12 bytes follow the entries. A count of two entries more, which the
// file cannot hold at seven bytes each, is refused by the count.
func TestDirectoryCountBoundIsSevenBytes(t *testing.T) {
	const entries = 40
	file := func(count int) []byte {
		b := binary.AppendUvarint(nil, metaMagic)
		b = binary.AppendUvarint(b, metaVersion)
		b = binary.AppendVarint(b, 0) // NumPages
		b = binary.AppendVarint(b, 0) // NumEdges
		b = append(b, 0, 0)           // Perm, Inv
		b = append(b, 1, 0)           // SnBase: [0]
		b = append(b, 0)              // Domains
		b = append(b, 1, 0)           // DomFirstSN: [0]
		b = append(b, 1, 0)           // SuperOff: [0]
		b = append(b, 0, 0, 0)        // SuperAdj, SuperGID, IntraGID
		b = binary.AppendUvarint(b, uint64(count))
		for i := 0; i < entries; i++ {
			b = append(b, kindIntra, 0, 0, 0, 0, 0, 0) // Kind, I, J, File, Offset, NumBytes, NumLists
		}
		b = append(b, 1, 0) // FileSizes: [0]
		return append(b, make([]byte, 10)...)
	}
	m, _, err := readMetaBytes(t, file(entries))
	if err != nil || len(m.Directory) != entries {
		t.Fatalf("a valid file of %d seven-byte entries: err = %v", entries, err)
	}
	if _, _, err := readMetaBytes(t, file(entries+2)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("count %d, at 7 bytes each", entries+2)) {
		t.Fatalf("%d entries claimed, %d held: err = %v, want the count refused", entries+2, entries, err)
	}
}

// metaSpans walks a meta.bin and returns the byte ranges of
// NumPages, Perm[0] and Directory[0].Kind.
func metaSpans(t *testing.T, raw []byte) (numPages, perm0, kind0 [2]int) {
	t.Helper()
	pos := 0
	next := func() (span [2]int, v uint64) {
		v, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			t.Fatalf("meta.bin does not parse at byte %d", pos)
		}
		span = [2]int{pos, pos + n}
		pos += n
		return span, v
	}
	skip := func(n uint64) {
		for ; n > 0; n-- {
			next()
		}
	}
	skipArrays := func(k int) {
		for ; k > 0; k-- {
			_, n := next()
			skip(n)
		}
	}
	skip(2) // magic, version
	numPages, _ = next()
	skip(1) // NumEdges
	_, n := next()
	perm0, _ = next()
	skip(n - 1)
	skipArrays(2) // Inv, SnBase
	_, nd := next()
	for ; nd > 0; nd-- {
		_, l := next()
		pos += int(l)
	}
	skipArrays(5) // DomFirstSN, SuperOff, SuperAdj, SuperGID, IntraGID
	next()        // directory size
	kind0, _ = next()
	return numPages, perm0, kind0
}

func TestValueTooWideForItsFieldIsRefused(t *testing.T) {
	valid := tinyMeta(t)
	numPages, perm0, kind0 := metaSpans(t, valid)
	splice := func(span [2]int, field []byte) []byte {
		return append(append(append([]byte(nil), valid[:span[0]]...), field...), valid[span[1]:]...)
	}
	widenSigned := func(span [2]int) []byte {
		v, _ := binary.Varint(valid[span[0]:span[1]])
		return splice(span, binary.AppendVarint(nil, v+1<<32))
	}
	kind, _ := binary.Uvarint(valid[kind0[0]:kind0[1]])
	for name, raw := range map[string][]byte{
		"NumPages + 2^32":            widenSigned(numPages),
		"Perm[0] + 2^32":             widenSigned(perm0),
		"Directory[0].Kind + 2^8":    splice(kind0, binary.AppendUvarint(nil, kind+256)),
		"Directory[0].Kind + 2^8·17": splice(kind0, binary.AppendUvarint(nil, kind+256*17)),
	} {
		if _, _, err := readMetaBytes(t, raw); err == nil || !strings.Contains(err.Error(), "does not fit") {
			t.Errorf("%s: err = %v, want the value refused as too wide", name, err)
		}
	}
	// The splices are sound: putting the same value back changes nothing.
	v, _ := binary.Varint(valid[perm0[0]:perm0[1]])
	if _, _, err := readMetaBytes(t, splice(perm0, binary.AppendVarint(nil, v))); err != nil {
		t.Fatalf("an identity splice is refused: %v", err)
	}
}

func TestTrailingBytesAreRefused(t *testing.T) {
	valid := tinyMeta(t)
	if _, _, err := readMetaBytes(t, valid); err != nil {
		t.Fatalf("the valid file is refused: %v", err)
	}
	for _, extra := range []int{1, 5} {
		raw := append(append([]byte(nil), valid...), make([]byte, extra)...)
		if _, _, err := readMetaBytes(t, raw); err == nil || !strings.Contains(err.Error(), "after the last field") {
			t.Errorf("+ %d bytes: err = %v, want the trailing bytes refused", extra, err)
		}
	}
}

// FuzzReadMeta: whatever the bytes, readMeta neither panics nor sizes
// anything beyond a multiple of the file, and what it returns without an
// error passes validate. Seeds: the valid file, every strict prefix of
// it, and (committed under testdata/fuzz) the valid file again, the
// probes of the tests above, and a version-1 and a version-2 file, which
// are refused.
func FuzzReadMeta(f *testing.F) {
	valid := tinyMeta(f)
	f.Add(valid)
	for n := 0; n < len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, alloc, err := readMetaBytes(t, raw)
		if err == nil {
			if verr := m.validate(); verr != nil {
				t.Fatalf("readMeta returned a meta its own validate refuses: %v", verr)
			}
		}
		// Per byte of input: 16 B of string header, 4 B of int32, the
		// string's bytes twice, and the read buffer; 4 KiB for the file.
		if limit := uint64(4<<10 + 32*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte file made readMeta allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}
