package query

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"snode/internal/store"
)

// goldenBudget is the per-store buffer the golden cells run under: the
// Figure 11 test-scale cache, small enough that the plans' access order
// shows up in the seek and byte counts.
const goldenBudget = 256 << 10

// renderTable3 runs Q1-Q6 serially on every built scheme, each from a
// cold cache in both directions, and renders rows and navigation I/O as
// the text testdata/table3.golden holds. Q1's values are PageRank sums
// and print to 9 significant digits; every other value is a count and
// prints exactly.
func renderTable3(t *testing.T) string {
	t.Helper()
	r := getRepo(t)
	var schemes []string
	for s := range r.Fwd {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	var b strings.Builder
	for _, scheme := range schemes {
		e, err := New(r, scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range All() {
			for _, s := range []store.LinkStore{r.Fwd[scheme], r.Rev[scheme]} {
				if cr, ok := s.(store.CacheResetter); ok {
					cr.ResetCache(goldenBudget)
				}
			}
			res, err := e.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", scheme, q, err)
			}
			fmt.Fprintf(&b, "%s q%d seeks=%d bytes=%d graphs=%d\n",
				scheme, q, res.Nav.Seeks, res.Nav.BytesRead, res.Nav.GraphsLoaded)
			for _, row := range res.Rows {
				if q == Q1 {
					fmt.Fprintf(&b, "\t%s\t%.9g\n", row.Key, row.Value)
				} else {
					fmt.Fprintf(&b, "\t%s\t%v\n", row.Key, row.Value)
				}
			}
		}
	}
	return b.String()
}

// TestTable3Golden pins what Figure 11 is made of: for every scheme,
// the rows each Table 3 plan returns and the seeks, bytes and graph
// loads its navigation costs from a cold cache. The golden file was
// generated at the last commit that had a hand-written plan per query
// (PR 14), so a plan edit that changes a row or moves an I/O counter
// fails here by scheme and query. On a mismatch the full rendering is
// saved as table3.got in the temp directory, to diff against the golden
// file or, when the change is intended, to replace it.
func TestTable3Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderTable3(t)
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	cell := ""
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !strings.HasPrefix(w, "\t") && w != "" {
			cell = strings.SplitN(w, " seeks=", 2)[0]
		}
		if g != w {
			out := filepath.Join(os.TempDir(), "table3.got")
			if err := os.WriteFile(out, []byte(got), 0o644); err != nil {
				t.Logf("could not save rendering: %v", err)
			}
			t.Fatalf("table3.golden line %d (cell %q):\n got: %q\nwant: %q\nfull rendering: %s", i+1, cell, g, w, out)
		}
	}
}
