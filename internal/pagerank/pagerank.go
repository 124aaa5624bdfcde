// Package pagerank computes PageRank by power iteration over the CSR
// Web graph. Queries 1 and 3 weight and select pages by PageRank; the
// paper builds this index in advance with the regular WebBase
// machinery, and so do we (index construction is not part of measured
// navigation time).
package pagerank

import (
	"math"
	"sort"

	"snode/internal/webgraph"
)

// Config controls the computation.
type Config struct {
	Damping    float64 // typically 0.85
	Iterations int     // upper bound
	Tolerance  float64 // L1 convergence threshold (0 = run all iterations)
}

// DefaultConfig matches common practice (and Brin & Page).
func DefaultConfig() Config {
	return Config{Damping: 0.85, Iterations: 40, Tolerance: 1e-9}
}

// Compute returns the PageRank vector (summing to 1). Dangling pages
// distribute their rank uniformly.
func Compute(g *webgraph.Graph, cfg Config) []float64 {
	n := g.NumPages()
	if n == 0 {
		return nil
	}
	if cfg.Damping <= 0 || cfg.Damping >= 1 {
		cfg.Damping = 0.85
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 40
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < cfg.Iterations; it++ {
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for p := 0; p < n; p++ {
			adj := g.Out(webgraph.PageID(p))
			if len(adj) == 0 {
				dangling += rank[p]
				continue
			}
			share := rank[p] / float64(len(adj))
			for _, q := range adj {
				next[q] += share
			}
		}
		base := (1-cfg.Damping)*inv + cfg.Damping*dangling*inv
		var delta float64
		for i := range next {
			v := base + cfg.Damping*next[i]
			delta += math.Abs(v - rank[i])
			rank[i] = v
		}
		if cfg.Tolerance > 0 && delta < cfg.Tolerance {
			break
		}
	}
	return rank
}

// Normalize scales ranks so the maximum is 1 (the "normalized PageRank
// value" used as page weight in Analysis 1).
func Normalize(rank []float64) []float64 {
	var max float64
	for _, r := range rank {
		if r > max {
			max = r
		}
	}
	if max == 0 {
		return rank
	}
	out := make([]float64, len(rank))
	for i, r := range rank {
		out[i] = r / max
	}
	return out
}

// TopK returns the k highest-ranked pages among candidates, in
// descending rank order with ascending ID tie-breaks. No candidates, nil
// included, rank none: a phrase no page contains has no top pages.
func TopK(rank []float64, candidates []webgraph.PageID, k int) []webgraph.PageID {
	pool := append([]webgraph.PageID(nil), candidates...)
	// Descending rank, ascending ID tie-break. The whole pool is sorted,
	// and a pool is not always small: Q3's is every page that contains
	// its phrase.
	sort.Slice(pool, func(i, j int) bool {
		a, b := pool[i], pool[j]
		if rank[a] != rank[b] {
			return rank[a] > rank[b]
		}
		return a < b
	})
	if k < len(pool) {
		pool = pool[:k]
	}
	return pool
}
