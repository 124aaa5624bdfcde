package ingest

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// runBytes is an edge run's bytes: the count, then the gap pairs.
func runBytes(count uint64, gaps ...uint64) []byte {
	b := binary.AppendUvarint(nil, count)
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
	}
	return b
}

// readEdgeRun opens the run in raw as one of n edges and reads it to its
// end, returning the edges it yields up to the first error.
func readEdgeRun(t *testing.T, raw []byte, n int64) ([]rawEdge, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := openEdgeRun(path, n)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var edges []rawEdge
	for c.ok {
		edges = append(edges, c.cur)
		if err := c.advance(); err != nil {
			return edges, err
		}
	}
	return edges, nil
}

// TestEdgeRunRefusesWrappingGaps: a source gap that wraps past 2^64
// once read (5,7), (4,1), (4,0) out of a three-edge run, and the merge
// took the run for ascending. The second edge is refused by name.
func TestEdgeRunRefusesWrappingGaps(t *testing.T) {
	edges, err := readEdgeRun(t, runBytes(3, 5, 7, math.MaxUint64, 1, 0, math.MaxUint64), 3)
	if !errors.Is(err, errEdgeRunOrder) {
		t.Fatalf("read %v, error %v; want %v", edges, err, errEdgeRunOrder)
	}
	if want := (rawEdge{5, 7}); len(edges) != 1 || edges[0] != want {
		t.Fatalf("read %v before the refusal, want [%v]", edges, want)
	}
}

// TestEdgeRunRoundTrip reads back what writeEdgeRun wrote, the edge
// (0, 0) first included.
func TestEdgeRunRoundTrip(t *testing.T) {
	want := []rawEdge{{0, 0}, {0, 3}, {2, 1}, {2, math.MaxUint64}, {math.MaxUint64, 0}}
	path := filepath.Join(t.TempDir(), "run")
	if _, err := writeEdgeRun(path, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readEdgeRun(t, raw, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read %v, want %v", got, want)
		}
	}
}

// FuzzOpenEdgeRun: whatever the bytes and the edge count the spiller
// recorded for them, a run neither panics the reader nor yields an edge
// that does not follow the one before it in strictly ascending (src,
// dst) order; a run read to its end without error yields the recorded
// count. Seeds: a valid run and (committed under testdata/fuzz) that run
// truncated and under a count it does not hold, the wrapping run of
// TestEdgeRunRefusesWrappingGaps and a run that repeats an edge.
func FuzzOpenEdgeRun(f *testing.F) {
	f.Add(int64(4), runBytes(4, 0, 2, 0, 5, 3, 1, 1, 9))
	f.Fuzz(func(t *testing.T, n int64, raw []byte) {
		edges, err := readEdgeRun(t, raw, n)
		for i := 1; i < len(edges); i++ {
			a, b := edges[i-1], edges[i]
			if b.s < a.s || (b.s == a.s && b.d <= a.d) {
				t.Fatalf("edge %d %v does not follow %v", i, b, a)
			}
		}
		if err == nil && int64(len(edges)) != n {
			t.Fatalf("read %d edges of a run recorded with %d", len(edges), n)
		}
	})
}
