package delta

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"snode/internal/iosim"
	"snode/internal/webgraph"
)

// FuzzOpenSegment: whatever bytes a segment file holds, openSegment
// refuses them or opens a segment whose every block all and opsInto read
// without a panic: both refuse an unknown op byte, and otherwise agree
// on each source's ops. The committed corpus
// under testdata/fuzz holds a valid writeSegmentFile output and mutants
// of it: a negative block offset, one whose end wraps past 2^63, an
// index whose sources do not ascend, an op byte that is neither add nor
// remove, and a truncated data region.
func FuzzOpenSegment(f *testing.F) {
	acc := iosim.NewAccountant(iosim.Model2002())
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "seg.delta")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSegment(path, acc, 1)
		if err != nil {
			return
		}
		defer s.close()
		all, allErr := s.all(ctx)
		failed := false
		for i, e := range s.index {
			got := map[webgraph.PageID]Op{}
			if _, err := s.opsInto(ctx, e.src, got); err != nil {
				failed = true
				continue
			}
			if allErr != nil {
				continue
			}
			want := map[webgraph.PageID]Op{}
			for _, r := range all[i].ops {
				if r.op != OpAdd && r.op != OpRemove {
					t.Fatalf("source %d: all read op %v", e.src, r.op)
				}
				want[r.dst] = r.op
			}
			if !maps.Equal(got, want) {
				t.Fatalf("source %d: opsInto read %v, all %v", e.src, got, want)
			}
		}
		if failed != (allErr != nil) {
			t.Fatalf("all: %v; some opsInto failed: %v", allErr, failed)
		}
	})
}
