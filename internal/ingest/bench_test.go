package ingest

import (
	"context"
	"testing"

	"snode/internal/synth"
)

// BenchmarkIngest is the write side's first stage end to end: one
// exported crawl (edge list, URL table, manifest), ingested under a
// budget that forces several sorted runs.
func BenchmarkIngest(b *testing.B) {
	cfg := synth.DefaultConfig(60000)
	cfg.Seed = 20030226
	crawl, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := Export(crawl.Corpus, b.TempDir(), ExportOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var edges int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := Ingest(context.Background(), exp.GraphPath, Options{MaxHeapMB: 2, SpillDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if st.Runs < 2 {
			b.Fatalf("%d runs: the budget no longer spills", st.Runs)
		}
		edges += st.Edges
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}
