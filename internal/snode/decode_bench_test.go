package snode

import (
	"context"
	"fmt"
	"testing"

	"snode/internal/iosim"
)

// Decode hot-path guards, wired into `make check-overhead`.
//
// Every codec decodes a whole graph into arenas, so the allocation
// count must not grow with the number of lists — a per-list or per-edge
// allocation regression trips the budget immediately. lz and log use
// one arena per graph, a constant; the paper codec's refenc decoder
// cuts its lists from chunks of up to 4096 IDs and grows its per-list
// scratch by doubling, a constant plus one allocation per chunk.

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

func TestDecodeHotPathAllocs(t *testing.T) {
	for _, codec := range CodecNames() {
		t.Run(codec, func(t *testing.T) {
			dir := buildCodecRep(t, codec, 600)
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
				// Under -codec auto the winner varies per entry, so key
				// off the entry's recorded codec.
				budget := 16.0
				if e.Codec == codecIDPaper {
					g, err := r.decodePayload(e, buf)
					if err != nil {
						t.Fatal(err)
					}
					budget = 24 + float64(g.edgeCount())/1024
				}
				if allocs > budget {
					t.Errorf("%s kind %d (%d lists, %d bytes): %.0f allocs/decode, budget %.0f",
						codec, kind, e.NumLists, e.NumBytes, allocs, budget)
				}
			}
		})
	}
}

// BenchmarkDecode reports ns/edge per codec and kind on the largest
// graph of each kind in a synthetic build.
func BenchmarkDecode(b *testing.B) {
	for _, codec := range CodecNames() {
		dir := buildCodecRep(b, codec, 600)
		r, err := Open(dir, 1<<20, iosim.Model2002())
		if err != nil {
			b.Fatal(err)
		}
		for kind, s := range decodeSamples(b, r) {
			e, buf := s.e, s.buf
			g, err := r.decodePayload(e, buf)
			if err != nil {
				b.Fatal(err)
			}
			edges := g.edgeCount()
			if edges == 0 {
				edges = 1
			}
			b.Run(fmt.Sprintf("%s/%s", codec, kindName(e.Kind)), func(b *testing.B) {
				b.SetBytes(int64(len(buf)))
				for i := 0; i < b.N; i++ {
					if _, err := r.decodePayload(e, buf); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
			})
			_ = kind
		}
		r.Close()
	}
}
