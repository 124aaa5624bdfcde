// Package shard partitions an S-Node corpus by domain into K
// independently servable shards plus a small boundary store for
// cross-shard edges — the distributed serving tier's build side.
//
// The paper's locality argument (§3: roughly three quarters of links
// stay inside their domain) is what makes this split cheap: partition
// on whole domains and the cross-shard edge fraction stays small, so
// each shard's S-Node stores hold almost all the structure its queries
// touch, and the leftover cross-shard edges fit a compact side store.
//
// The partitioning scheme replicates the SMALL global state and
// partitions the BIG state:
//
//   - Every shard keeps the full page metadata (URLs, domains, terms),
//     under global page IDs, and rebuilds the global text index and
//     domain index from it — these are the paper's un-timed basic
//     indexes, tiny next to the link structure.
//   - Global PageRank is computed once over the full graph at
//     partition time and persisted; every shard serves with the same
//     vector, so rank-dependent queries resolve identically anywhere.
//   - The link structure is partitioned: shard k's S-Node stores hold
//     the intra-shard edges (source AND target owned by k), and two
//     boundary stores per shard hold the rest — fwd: owned source →
//     remote target, rev: owned target ← remote source.
//
// A shard serving with its S-Node store overlaid by its own boundary
// stores (MergedStore) sees the complete adjacency of every page it
// owns, in both directions — which is exactly the invariant the
// partial-query decomposition (internal/query/partial.go) and the
// scatter-gather router (internal/router) are built on.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"snode/internal/webgraph"
)

// Run is a maximal contiguous page-ID interval assigned to one shard.
// Domains are contiguous in page-ID order (the crawl assigns IDs in
// (domain, URL) order), so a whole-domain partition is a short run
// list.
type Run struct {
	Start webgraph.PageID `json:"start"`
	Count int32           `json:"count"`
	Shard int             `json:"shard"`
}

// Assign partitions the pages' domains over k shards: domains are
// taken largest-first (ties lexicographically) and each goes to the
// currently lightest shard (ties to the lowest shard index) — the
// classic greedy multiway number partitioning, deterministic for a
// fixed corpus. Returns the assignment as merged page-ID runs in page
// order. Every shard owns at least one domain: a k above the number of
// domains is refused (errTooManyShards).
func Assign(pages []webgraph.PageMeta, k int) ([]Run, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", k)
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("shard: empty corpus")
	}
	type domain struct {
		name  string
		lo    webgraph.PageID
		count int32
	}
	var domains []domain
	for i := 0; i < len(pages); {
		j := i
		for j < len(pages) && pages[j].Domain == pages[i].Domain {
			j++
		}
		domains = append(domains, domain{
			name:  pages[i].Domain,
			lo:    webgraph.PageID(i),
			count: int32(j - i),
		})
		i = j
	}
	if k > len(domains) {
		return nil, fmt.Errorf("shard: %d shards for %d domains: %w", k, len(domains), errTooManyShards)
	}
	order := make([]int, len(domains))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := domains[order[a]], domains[order[b]]
		if da.count != db.count {
			return da.count > db.count
		}
		return da.name < db.name
	})
	load := make([]int64, k)
	shardOfDomain := make([]int, len(domains))
	for _, di := range order {
		lightest := 0
		for s := 1; s < k; s++ {
			if load[s] < load[lightest] {
				lightest = s
			}
		}
		shardOfDomain[di] = lightest
		load[lightest] += int64(domains[di].count)
	}
	var runs []Run
	for di, d := range domains {
		s := shardOfDomain[di]
		if n := len(runs); n > 0 && runs[n-1].Shard == s &&
			runs[n-1].Start+webgraph.PageID(runs[n-1].Count) == d.lo {
			runs[n-1].Count += d.count
			continue
		}
		runs = append(runs, Run{Start: d.lo, Count: d.count, Shard: s})
	}
	return runs, nil
}

// errTooManyShards refuses a partition in which some shard would own no
// page, and so serve nothing.
var errTooManyShards = errors.New("a shard owns whole domains, so there can be no more shards than domains")
