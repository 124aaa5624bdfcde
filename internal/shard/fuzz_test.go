package shard

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"snode/internal/webgraph"
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
			for src := webgraph.PageID(-1); src <= numPages; src++ {
				lst := b.Out(src)
				if len(lst) > 0 && (src < 0 || src >= numPages) {
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
		// A source costs two bytes; a target costs one and sizes 4 B,
		// twice over while the targets grow; 4 KiB for the file and the
		// rows' offsets.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<10+64*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte file made OpenBoundary allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}

// FuzzLoadManifest: whatever manifest.json holds, LoadManifest does not
// panic, and a manifest it accepts maps each run's first and last page
// to that run's shard. An input that parses as JSON is re-stamped
// before it is written: a random one almost never carries its FNV
// version, and the stamp would stop it ahead of the structural checks.
// Seeds (testdata/fuzz): the manifest shard.Build writes for a
// 282-page K=2 crawl, and mutants of it with a gap, an overlap, a run
// on shard 2 of 2 and a boundary path that starts with "../".
func FuzzLoadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m Manifest
		if json.Unmarshal(raw, &m) == nil {
			m.Version = m.stamp()
			var err error
			if raw, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
		}
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadManifest(root)
		if err != nil {
			return
		}
		for i, r := range got.Runs {
			for _, p := range []webgraph.PageID{r.Start, r.Start + webgraph.PageID(r.Count) - 1} {
				if s := got.ShardOf(p); s != r.Shard {
					t.Fatalf("run %d %+v: ShardOf(%d) = %d", i, r, p, s)
				}
			}
		}
	})
}
