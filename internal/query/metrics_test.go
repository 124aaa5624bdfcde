package query

import (
	"context"
	"testing"

	"snode/internal/metrics"
	"snode/internal/repo"
	"snode/internal/synth"
)

// TestQueryMetricsRecorded runs the six queries serially and from four
// goroutines over a Shared engine with a registry wired in, and checks
// every per-query histogram counted both executions and the stage
// histograms are populated.
func TestQueryMetricsRecorded(t *testing.T) {
	cfg := synth.DefaultConfig(2000)
	crawl, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := repo.DefaultOptions(t.TempDir())
	opt.Schemes = []string{repo.SchemeSNode}
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)

	if _, err := e.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := runParallel(context.Background(), e, All(), 4); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, q := range All() {
		name := "query_latency_q" + string(rune('0'+int(q)))
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s not registered", name)
		}
		if h.Count != 2 {
			t.Errorf("%s count = %d, want 2 (one serial + one concurrent run)", name, h.Count)
		}
		if h.P95() <= 0 {
			t.Errorf("%s p95 = %d, want > 0", name, h.P95())
		}
	}
	if h := snap.Histograms["query_nav_seconds"]; h.Count != 12 {
		t.Errorf("nav stage count = %d, want 12", h.Count)
	}
	if h := snap.Histograms["query_resolve_seconds"]; h.Count == 0 {
		t.Error("resolve stage histogram empty")
	}
}
