package query

import (
	"context"
	"testing"

	"snode/internal/repo"
	"snode/internal/snode"
)

// TestNavigateLookupsPinned counts the graph-cache lookups of one warm
// Q1–Q6 cycle on the test fixture: hits plus misses, over the forward
// and the reverse S-Node store. A plan step reads each graph once per
// supernode of its page set (snode.Representation.Neighbors); read a page
// at a time, the same cycle made 28,570 lookups, and the bound is a
// fifth of that.
func TestNavigateLookupsPinned(t *testing.T) {
	const perPage = 28570
	ctx := context.Background()
	e := coldEngine(t)
	if _, err := e.RunAll(ctx); err != nil { // warms the caches
		t.Fatal(err)
	}
	reps := []*snode.Representation{
		e.R.Fwd[repo.SchemeSNode].(*snode.Representation),
		e.R.Rev[repo.SchemeSNode].(*snode.Representation),
	}
	for _, r := range reps {
		r.ResetStats()
	}
	if _, err := e.Shared().RunAll(ctx); err != nil { // a shared engine keeps the counters
		t.Fatal(err)
	}
	var lookups int64
	for _, r := range reps {
		st := r.StatsExt().Cache
		if st.Misses != 0 {
			t.Errorf("the cycle was not warm: %+v", st)
		}
		lookups += st.Hits + st.Misses
	}
	t.Logf("%d graph-cache lookups in a warm Q1–Q6 cycle (%d page by page)", lookups, perPage)
	if lookups > perPage/5 {
		t.Errorf("%d graph-cache lookups in a warm Q1–Q6 cycle, want at most %d (a fifth of %d)", lookups, perPage/5, perPage)
	}
}
