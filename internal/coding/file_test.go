package coding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeAll writes one of everything a Writer offers and returns the
// bytes encoding/binary lays down for the same values.
func writeAll(w *Writer) []byte {
	w.Write([]byte("MAGC"))
	w.Uvarint(300)
	w.Varint(-70000)
	w.Str("http://a.com/")
	w.U32(0xDEADBEEF)
	w.U64(math.Float64bits(0.25))
	w.Uvarint(3) // a count, then an ascending run of three below 100
	w.Uvarint(6)
	w.Uvarint(1)
	w.Uvarint(93)

	want := []byte("MAGC")
	want = binary.AppendUvarint(want, 300)
	want = binary.AppendVarint(want, -70000)
	want = binary.AppendUvarint(want, 13)
	want = append(want, "http://a.com/"...)
	want = binary.LittleEndian.AppendUint32(want, 0xDEADBEEF)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(0.25))
	return append(want, 3, 6, 1, 93)
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	var want []byte
	var offset int64
	if err := WriteFile(path, func(w *Writer) error {
		want = writeAll(w)
		offset = w.Offset()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file holds %x (err %v), encoding/binary lays down %x", got, err, want)
	}
	if offset != int64(len(want)) {
		t.Fatalf("Offset() = %d after %d bytes", offset, len(want))
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	readAll(t, r)

	// The same primitives over memory lay down the same bytes, and the
	// Reader over them reads them back the same way.
	mem := NewBuffer(nil)
	writeAll(mem)
	if !bytes.Equal(mem.Bytes(), want) || mem.Offset() != int64(len(want)) {
		t.Fatalf("a Writer over memory holds %x at offset %d, the file %x", mem.Bytes(), mem.Offset(), want)
	}
	readAll(t, NewReader(mem.Bytes()))
}

// readAll reads back what writeAll wrote and fails on any difference.
func readAll(t *testing.T, r *Reader) {
	t.Helper()
	if m := r.Raw(4); m != "MAGC" {
		t.Errorf("Raw = %q", m)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -70000 {
		t.Errorf("Varint = %d", v)
	}
	if s := r.Str(); s != "http://a.com/" {
		t.Errorf("Str = %q", s)
	}
	if b := r.Raw(4); b != "\xEF\xBE\xAD\xDE" {
		t.Errorf("U32 bytes = %x", b)
	}
	if v := math.Float64frombits(r.U64()); v != 0.25 {
		t.Errorf("U64 = %v", v)
	}
	n, last, run := r.Count(100, 1), int64(-1), []int64(nil)
	for i := 0; i < n && r.Step(&last, 100); i++ {
		run = append(run, last)
	}
	if len(run) != 3 || run[0] != 5 || run[1] != 6 || run[2] != 99 {
		t.Errorf("run = %v, want [5 6 99]", run)
	}
	if r.End(); r.Err() != nil {
		t.Fatalf("the valid file is refused: %v", r.Err())
	}
}

// TestFailedWriteLeavesNothing: a fill that fails a megabyte in leaves
// neither the target nor the temporary file, and a file already at the
// target is still the old one; a target whose directory does not exist
// is an error, not a file somewhere else.
func TestFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	boom := errors.New("boom")
	fail := func(w *Writer) error {
		w.Write(make([]byte, 1<<20))
		w.Uvarint(7)
		return boom
	}
	if err := WriteFile(path, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fill's", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("a failed write left %v", left)
	}

	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fill's", err)
	}
	left, _ := os.ReadDir(dir)
	if got, _ := os.ReadFile(path); len(left) != 1 || string(got) != "old" {
		t.Fatalf("after a failed overwrite the directory holds %v and the target %q", left, got)
	}

	// Success replaces the old file, through a temporary beside it.
	if err := WriteFile(path, func(w *Writer) error { w.Str("new"); return nil }); err != nil {
		t.Fatal(err)
	}
	left, _ = os.ReadDir(dir)
	if got, _ := os.ReadFile(path); len(left) != 1 || string(got) != "\x03new" {
		t.Fatalf("after an overwrite the directory holds %v and the target %q", left, got)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "artifact"), fail); err == nil {
		t.Fatal("a write into a directory that does not exist succeeded")
	}
}

// TestReaderRefusals: each check the Reader owns, on bytes that fail it
// and nothing else. The error is sticky and names the byte offset.
func TestReaderRefusals(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name  string
		bytes []byte
		read  func(r *Reader)
		want  string
	}{
		{"count above the caller's bound", uv(11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), func(r *Reader) { r.Count(10, 1) }, "count 11"},
		{"count above the bytes left", uv(1<<27-1, 1, 2, 3), func(r *Reader) { r.Count(math.MaxInt32, 1) }, "3 bytes left"},
		{"count above the bytes left at 8 each", append(uv(2), make([]byte, 15)...), func(r *Reader) { r.Count(100, 8) }, "at 8 bytes each"},
		{"count of 2^64-1", uv(math.MaxUint64), func(r *Reader) { r.Count(math.MaxInt, 1) }, "count 18446744073709551615"},
		{"string longer than the file", uv(5, 'a', 'b'), func(r *Reader) { r.Str() }, "count 5"},
		{"int32 field holding 2^32+800", binary.AppendVarint(nil, 1<<32+800), func(r *Reader) { r.Int32() }, "does not fit its int32"},
		{"int32 field holding -2^31-1", binary.AppendVarint(nil, math.MinInt32-1), func(r *Reader) { r.Int32() }, "-2147483649 does not fit its int32"},
		{"byte field holding 256+1", uv(257), func(r *Reader) { r.Uint8() }, "257 does not fit its uint8"},
		{"zero gap", uv(0), func(r *Reader) { l := int64(4); r.Step(&l, 10) }, "gap 0 from 4"},
		{"gap to the bound", uv(6), func(r *Reader) { l := int64(4); r.Step(&l, 10) }, "leaves [0,10)"},
		{"gap of 2^63", uv(1 << 63), func(r *Reader) { l := int64(-1); r.Step(&l, math.MaxInt64) }, "gap 9223372036854775808"},
		{"varint cut short", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }, "ends inside a varint"},
		{"varint of eleven bytes", bytes.Repeat([]byte{0x80}, 11), func(r *Reader) { r.Uvarint() }, "overflows"},
		{"fixed field cut short", make([]byte, 7), func(r *Reader) { r.U64() }, "ends inside an 8-byte field"},
		{"raw field cut short", []byte("SNB"), func(r *Reader) { r.Raw(4) }, "4-byte field with 3 bytes left"},
		{"empty file", nil, func(r *Reader) { r.Uvarint() }, "byte 0"},
		{"trailing byte", uv(1, 0), func(r *Reader) { r.Uvarint(); r.End() }, "byte 1: 1 bytes after the last field"},
	}
	path := filepath.Join(t.TempDir(), "artifact")
	for _, c := range cases {
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The file and the same bytes in memory fail alike, at the same byte.
		for _, r := range []*Reader{r, NewReader(c.bytes)} {
			src := "file"
			if r.f == nil {
				src = "memory"
			}
			c.read(r)
			first := r.Err()
			if first == nil || !strings.Contains(first.Error(), c.want) {
				t.Errorf("%s (%s): err = %v, want one naming %q", c.name, src, first, c.want)
			}
			// Sticky: everything after the failure is zero and the error stays.
			if v, s, n := r.Uvarint(), r.Str(), r.Count(10, 1); v != 0 || s != "" || n != 0 || r.U64() != 0 || r.Int32() != 0 || r.Raw(0) != "" {
				t.Errorf("%s (%s): reads after the failure returned %d %q %d", c.name, src, v, s, n)
			}
			if r.End(); r.Err() != first {
				t.Errorf("%s (%s): the error changed to %v", c.name, src, r.Err())
			}
		}
		r.Close()
	}
}

// TestReaderAcrossBufferRefills reads a file several buffers long, with
// a string longer than a buffer in the middle, and then every strict
// prefix of a short file: each must fail, none may panic.
func TestReaderAcrossBufferRefills(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	long := strings.Repeat("0123456789abcdef", (3*fileBuf)/16+1)
	const n = 40000
	if err := WriteFile(path, func(w *Writer) error {
		for i := 0; i < n; i++ {
			w.Uvarint(uint64(i) * 2654435761)
		}
		w.Str(long)
		for i := 0; i < n; i++ {
			w.Varint(int64(i) - n/2)
			w.U64(uint64(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		if v := r.Uvarint(); v != uint64(i)*2654435761 {
			t.Fatalf("uvarint %d = %d", i, v)
		}
	}
	if s := r.Str(); s != long {
		t.Fatalf("the %d-byte string came back as %d bytes", len(long), len(s))
	}
	for i := 0; i < n; i++ {
		if v, u := r.Varint(), r.U64(); v != int64(i)-n/2 || u != uint64(i) {
			t.Fatalf("pair %d = %d, %d", i, v, u)
		}
	}
	if r.End(); r.Err() != nil {
		t.Fatal(r.Err())
	}

	var valid []byte
	valid = binary.AppendUvarint(valid, 1<<40)
	valid = append(binary.AppendUvarint(valid, 3), "abc"...)
	valid = binary.LittleEndian.AppendUint64(valid, 9)
	for cut := 0; cut < len(valid); cut++ {
		if err := os.WriteFile(path, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Reader{p, NewReader(valid[:cut])} {
			r.Uvarint()
			r.Str()
			r.U64()
			if r.End(); r.Err() == nil {
				t.Errorf("the bytes cut to %d of %d read clean", cut, len(valid))
			}
		}
		p.Close()
	}
}
