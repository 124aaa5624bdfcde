package shard

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzOpenBoundary: whatever the bytes, OpenBoundary neither panics nor
// sizes anything beyond a multiple of the file; it answers ErrCorrupt, or
// a store whose lists ascend strictly inside the page range. Seeds: the
// valid file of TestHostileArtifactsAreRefused, every strict prefix of
// it, and (committed under testdata/fuzz) the hostile files of that test.
func FuzzOpenBoundary(f *testing.F) {
	const numPages = 100
	valid := append([]byte(boundaryMagic), uvarints(boundaryVersion, 2, 1, 3, 6, 1, 93, 41, 1, 100)...)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "boundary.fwd")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := OpenBoundary(path, numPages)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refused with %v, want ErrCorrupt", err)
			}
		} else {
			var edges int64
			for src, lst := range b.adj {
				if src < 0 || src >= numPages {
					t.Fatalf("source %d outside [0,%d)", src, numPages)
				}
				for i, q := range lst {
					if q < 0 || q >= numPages || (i > 0 && q <= lst[i-1]) {
						t.Fatalf("source %d: list %v does not ascend inside [0,%d)", src, lst, numPages)
					}
				}
				edges += int64(len(lst))
			}
			if edges != b.NumEdges() {
				t.Fatalf("NumEdges() = %d over %d stored", b.NumEdges(), edges)
			}
		}
		// A source costs two bytes and sizes a map slot (key, slice header
		// and the table's slack); a target costs one and sizes 4 B; 4 KiB
		// for the file.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<10+64*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte file made OpenBoundary allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}
