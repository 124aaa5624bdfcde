package snode

import (
	"context"
	"testing"

	"snode/internal/iosim"
	"snode/internal/raceflag"
)

// Decode hot-path guards, wired into `make check-overhead`.
//
// A whole graph decodes into one refenc.Lists, so a decode
// allocates what it returns — the offsets, the IDs, the graph's struct,
// and for a positive superedge graph its sources — whatever the number
// of lists or edges: a per-list, per-chunk or per-edge allocation trips
// the budget immediately.

// decodeSamples returns, per payload kind, the largest graph of that
// kind with its raw payload bytes.
func decodeSamples(t testing.TB, r *Representation) map[uint8]struct {
	e   *dirEntry
	buf []byte
} {
	t.Helper()
	out := make(map[uint8]struct {
		e   *dirEntry
		buf []byte
	})
	for gi := range r.m.Directory {
		e := &r.m.Directory[gi]
		if cur, ok := out[e.Kind]; ok && cur.e.NumBytes >= e.NumBytes {
			continue
		}
		buf := make([]byte, e.NumBytes)
		if _, err := r.files[e.File].ReadAtCtx(context.Background(), buf, e.Offset); err != nil {
			t.Fatal(err)
		}
		out[e.Kind] = struct {
			e   *dirEntry
			buf []byte
		}{e, buf}
	}
	return out
}

func TestDecodeHotPathAllocs(t *testing.T) { t.Run(paperFormat, testDecodeHotPathAllocs) }

func testDecodeHotPathAllocs(t *testing.T) {
	dir := buildTestRep(t, 600)
	r, err := Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for kind, s := range decodeSamples(t, r) {
		e, buf := s.e, s.buf
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := r.decodePayload(e, buf); err != nil {
				t.Fatal(err)
			}
		})
		budget := 3.0
		if kind == kindSuperPos {
			budget = 4
		}
		if raceflag.Enabled {
			budget += 24 // the scratch pool forgets under the race detector
		}
		if allocs > budget {
			t.Errorf("kind %d (%d lists, %d bytes): %.0f allocs/decode, budget %.0f",
				kind, e.NumLists, e.NumBytes, allocs, budget)
		}
	}
}

// BenchmarkDecode reports ns/edge per payload kind on the largest
// graph of each kind in a synthetic build.
func BenchmarkDecode(b *testing.B) {
	dir := buildTestRep(b, 600)
	r, err := Open(dir, 1<<20, iosim.Model2002())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for _, s := range decodeSamples(b, r) {
		e, buf := s.e, s.buf
		g, err := r.decodePayload(e, buf)
		if err != nil {
			b.Fatal(err)
		}
		edges := g.edgeCount()
		if edges == 0 {
			edges = 1
		}
		b.Run(kindName(e.Kind), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, err := r.decodePayload(e, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
		})
	}
}
