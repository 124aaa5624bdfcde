package pagerank

import (
	"math"
	"testing"

	"snode/internal/webgraph"
)

func TestSumsToOne(t *testing.T) {
	b := webgraph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 0) // page 4 dangling
	g := b.Build()
	rank := Compute(g, DefaultConfig())
	var sum float64
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %f", sum)
	}
}

func TestHubGetsHighestRank(t *testing.T) {
	// Everyone points at page 0.
	b := webgraph.NewBuilder(6)
	for p := int32(1); p < 6; p++ {
		b.AddEdge(p, 0)
	}
	rank := Compute(b.Build(), DefaultConfig())
	for p := 1; p < 6; p++ {
		if rank[0] <= rank[p] {
			t.Fatalf("hub rank %f not above page %d rank %f", rank[0], p, rank[p])
		}
	}
}

func TestSymmetricCycleUniform(t *testing.T) {
	const n = 8
	b := webgraph.NewBuilder(n)
	for p := int32(0); p < n; p++ {
		b.AddEdge(p, (p+1)%n)
	}
	rank := Compute(b.Build(), DefaultConfig())
	for p := 1; p < n; p++ {
		if math.Abs(rank[p]-rank[0]) > 1e-9 {
			t.Fatalf("ring ranks differ: %v", rank)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	if got := Compute(webgraph.NewBuilder(0).Build(), DefaultConfig()); got != nil {
		t.Fatalf("empty graph rank = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{0.1, 0.4, 0.2})
	if out[1] != 1.0 {
		t.Fatalf("max not 1: %v", out)
	}
	if math.Abs(out[0]-0.25) > 1e-12 {
		t.Fatalf("scaling wrong: %v", out)
	}
}

func TestTopK(t *testing.T) {
	rank := []float64{0.1, 0.5, 0.3, 0.5, 0.0}
	got := TopK(rank, []webgraph.PageID{0, 1, 2, 3, 4}, 3)
	// 1 and 3 tie at 0.5 (ascending ID breaks the tie), then 2.
	want := []webgraph.PageID{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v", got)
		}
	}
	got = TopK(rank, []webgraph.PageID{4, 2}, 10)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("candidate TopK = %v", got)
	}
	if got = TopK(rank, nil, 3); len(got) != 0 {
		t.Fatalf("TopK of no candidates = %v, want none", got)
	}
}

func TestConvergenceStable(t *testing.T) {
	// More iterations must not change a converged result materially.
	b := webgraph.NewBuilder(20)
	for p := int32(0); p < 20; p++ {
		b.AddEdge(p, (p*7+3)%20)
		b.AddEdge(p, (p*3+1)%20)
	}
	g := b.Build()
	cfg := DefaultConfig()
	r1 := Compute(g, cfg)
	cfg.Iterations = 200
	r2 := Compute(g, cfg)
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-6 {
			t.Fatalf("rank %d unstable: %f vs %f", i, r1[i], r2[i])
		}
	}
}
