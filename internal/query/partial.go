// The six Table 3 plans, and the merge that turns their rows into a
// query's answer.
//
// A sharded corpus (internal/shard) replicates the small global state
// — page metadata, text index, global PageRank, domain index — to
// every shard, and partitions the expensive state, the link structure:
// a shard's S-Node stores hold the edges whose SOURCE page it owns
// (intra-shard edges in the compressed representation, cross-shard
// edges merged back in from the boundary store). Under that layout a
// shard can answer any Table 3 query EXACTLY for the slice of the
// page set it owns: source-page sets resolve identically everywhere
// (global indexes), and navigation from an owned page sees the page's
// complete adjacency in both directions.
//
// Each query is therefore written once, as a plan: source page sets
// resolved through the indexes, navigation steps over them, and an
// emitter of untruncated, group-tagged rows. The executor
// (Engine.navigate) expands only the source pages the engine owns, and
// MergePartials applies the query's truncation and aggregation to
// however many engines' rows it is given — K shards' behind the router,
// or, for Run, the single partial of an engine that owns everything.
package query

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"snode/internal/pagerank"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// SetOwner restricts the plans' source page sets to the pages owns
// accepts (the shard's slice of the corpus). nil means the engine owns
// every page. Call before serving; Shared copies inherit the predicate.
func (e *Engine) SetOwner(owns func(webgraph.PageID) bool) { e.owned = owns }

// PartialRow is one untruncated, mergeable output row of a partial
// query execution. Group disambiguates rows that merge independently
// (Q4: the university; Q6: which source set cited the target).
type PartialRow struct {
	Group string
	Key   string
	Value float64
}

// PartialResult is one shard's contribution to a scattered query.
type PartialResult struct {
	Query ID
	Rows  []PartialRow
	Nav   NavStats
	// Trace is the finished execution trace when the engine's tracer
	// sampled this run (nil otherwise), as in Result.
	Trace *trace.Trace
}

// RunPartial executes one query restricted to the engine's owned
// pages, returning mergeable partial rows. The context propagates, and
// traces and metrics are recorded, exactly as in Run.
func (e *Engine) RunPartial(ctx context.Context, q ID) (*PartialResult, error) {
	return e.runPlan(ctx, q)
}

// step is one navigation pass of a plan: the executor expands every
// owned page of src — forward, or over the transposed graph when rev —
// under filter (nil = the full adjacency), and hands the page and its
// neighbours to visit. nbrs is the executor's scratch buffer: visit may
// reorder it but must not keep it.
type step struct {
	src    []webgraph.PageID
	rev    bool
	filter *store.Filter
	visit  func(p webgraph.PageID, nbrs []webgraph.PageID)
}

// plan is one Table 3 query after index resolution: the navigation
// steps to perform and, called once they have run, rows — what the
// visits accumulated, as mergeable rows in an order fixed by the
// navigation (never by map iteration).
type plan struct {
	steps []step
	rows  func() []PartialRow
}

// planFor resolves q's source page sets and builds its plan.
func (e *Engine) planFor(q ID) (plan, error) {
	switch q {
	case Q1:
		return e.planQ1(), nil
	case Q2:
		return e.planQ2()
	case Q3:
		return e.planQ3(), nil
	case Q4:
		return e.planQ4(), nil
	case Q5:
		return e.planQ5(), nil
	}
	return e.planQ6(), nil
}

// planQ1 — Analysis 1: weighted list of .edu domains referenced by
// Stanford pages about mobile networking. Rows: domain weights; merge
// by summing.
func (e *Engine) planQ1() plan {
	weights := map[string]float64{}
	var order []string
	return plan{
		steps: []step{{
			src:    e.phraseInDomain(synth.PhraseMobileNetworking, "stanford.edu"),
			filter: &store.Filter{Domains: e.R.EduDomains("stanford.edu")},
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				// A page contributes its weight once per domain it points to.
				seen := map[string]bool{}
				for _, t := range nbrs {
					d := e.R.DomainOf(t)
					if !seen[d] {
						seen[d] = true
						if _, ok := weights[d]; !ok {
							order = append(order, d)
						}
						weights[d] += e.R.PageRank[p]
					}
				}
			},
		}},
		rows: func() []PartialRow {
			rows := make([]PartialRow, 0, len(order))
			for _, d := range order {
				rows = append(rows, PartialRow{Key: d, Value: weights[d]})
			}
			return rows
		},
	}
}

// planQ2 — Analysis 2: popularity C1+C2 per comic strip, C1 the
// Stanford pages with at least two of the strip's words and C2 the
// links from Stanford pages to the strip's site. Rows: per-comic
// counts; merge by summing.
func (e *Engine) planQ2() (plan, error) {
	comics := synth.Comics()
	dr, ok := e.R.Domains["stanford.edu"]
	if !ok {
		// Domain ranges are global, so every shard fails identically.
		return plan{}, fmt.Errorf("query: stanford.edu not in corpus")
	}
	// C1 comes from the text index, but is counted as the executor
	// visits each Stanford page so that it is restricted to owned pages
	// by the same check as C2.
	textHits := map[webgraph.PageID][]string{}
	siteOf := map[string]string{}
	sites := map[string]bool{}
	for _, c := range comics {
		for _, p := range e.R.Text.PagesWithAtLeast(c.Words, 2) {
			if p >= dr.Lo && p < dr.Hi {
				textHits[p] = append(textHits[p], c.Name)
			}
		}
		siteOf[c.Site] = c.Name
		sites[c.Site] = true
	}
	stanford := make([]webgraph.PageID, 0, dr.Hi-dr.Lo)
	for p := dr.Lo; p < dr.Hi; p++ {
		stanford = append(stanford, p)
	}
	counts := map[string]int{}
	return plan{
		steps: []step{{
			src:    stanford,
			filter: &store.Filter{Domains: sites},
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				for _, name := range textHits[p] {
					counts[name]++
				}
				for _, t := range nbrs {
					counts[siteOf[e.R.DomainOf(t)]]++
				}
			},
		}},
		rows: func() []PartialRow {
			rows := make([]PartialRow, 0, len(comics))
			for _, c := range comics {
				rows = append(rows, PartialRow{Key: c.Name, Value: float64(counts[c.Name])})
			}
			return rows
		},
	}, nil
}

// kleinbergInCap bounds in-neighbours per base-set page, as in HITS.
const kleinbergInCap = 50

// planQ3 — Kleinberg base set S ∪ out(S) ∪ in(S) for the top-100
// "Internet censorship" pages. S resolves identically on every shard
// (global text index and PageRank), and each contributes {p} ∪ out(p) ∪
// cappedIn(p) for the p ∈ S it owns. Rows: one per base-set member,
// keyed by page ID, ascending; merge by distinct-key union. The members
// are a bitset over the corpus's page IDs, so the rows come out in order
// by walking its words.
func (e *Engine) planQ3() plan {
	s := pagerank.TopK(e.R.PageRank, e.R.Text.Lookup(synth.PhraseInternetCensorship), 100)
	// Navigate in page-ID order (sort the fetch set before touching the
	// representation — the classic RID-sort, which every scheme's
	// on-disk clustering benefits from).
	slices.Sort(s)
	members := make([]uint64, (len(e.R.Corpus.Pages)+63)/64)
	add := func(p webgraph.PageID) { members[p>>6] |= 1 << (uint(p) & 63) }
	return plan{
		steps: []step{{
			src: s,
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				add(p)
				for _, t := range nbrs {
					add(t)
				}
			},
		}, {
			src: s,
			rev: true,
			visit: func(_ webgraph.PageID, nbrs []webgraph.PageID) {
				// Deterministic cap: the smallest page IDs.
				for _, t := range smallest(nbrs, kleinbergInCap) {
					add(t)
				}
			},
		}},
		rows: func() []PartialRow {
			n := 0
			for _, w := range members {
				n += bits.OnesCount64(w)
			}
			rows := make([]PartialRow, 0, n)
			for k, w := range members {
				for ; w != 0; w &= w - 1 {
					p := int64(k)<<6 | int64(bits.TrailingZeros64(w))
					rows = append(rows, PartialRow{Key: strconv.FormatInt(p, 10), Value: 1})
				}
			}
			return rows
		},
	}
}

// smallest reorders ids so that its first k are the k smallest, in no
// particular order, and returns them: a selection in expected linear
// time (Hoare's FIND). The cap needs its members, not their order, so
// no in-list is sorted whole.
func smallest(ids []webgraph.PageID, k int) []webgraph.PageID {
	if len(ids) <= k {
		return ids
	}
	lo, hi, t := 0, len(ids)-1, k-1
	for lo < hi {
		// The median of three is a value of the range, so both scans stop
		// inside it, and sorted or reversed input still halves it.
		a, b, c := ids[lo], ids[lo+(hi-lo)/2], ids[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for ids[i] < pivot {
				i++
			}
			for ids[j] > pivot {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		// ids[lo..j] <= pivot <= ids[i..hi], and anything between is pivot.
		if j < t {
			lo = i
		}
		if t < i {
			hi = j
		}
	}
	return ids[:k]
}

// planQ4 — per-university quantum-cryptography pages by external
// in-links, one step per university. Rows carry the university as
// Group; merge ranks and caps 10 per group.
func (e *Engine) planQ4() plan {
	var rows []PartialRow
	var steps []step
	for _, uni := range synth.Universities() {
		steps = append(steps, step{
			src: e.phraseInDomain(synth.PhraseQuantumCryptography, uni),
			rev: true,
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				n := 0
				for _, src := range nbrs {
					if e.R.DomainOf(src) != uni {
						n++
					}
				}
				rows = append(rows, PartialRow{Group: uni, Key: uni + " " + e.R.Corpus.Pages[p].URL, Value: float64(n)})
			},
		})
	}
	return plan{steps: steps, rows: func() []PartialRow { return rows }}
}

// planQ5 — computer-music pages by in-links from within the set. Rows:
// the .edu members with their counts; merge ranks and caps 10.
func (e *Engine) planQ5() plan {
	s := e.R.Text.Lookup(synth.PhraseComputerMusic)
	inSet := map[webgraph.PageID]bool{}
	for _, p := range s {
		inSet[p] = true
	}
	var rows []PartialRow
	return plan{
		steps: []step{{
			src:    s,
			rev:    true,
			filter: &store.Filter{Pages: inSet},
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				if strings.HasSuffix(e.R.DomainOf(p), ".edu") {
					rows = append(rows, PartialRow{Key: e.R.Corpus.Pages[p].URL, Value: float64(len(nbrs))})
				}
			},
		}},
		rows: func() []PartialRow { return rows },
	}
}

// planQ6 — pages outside both universities cited by Stanford and by
// Berkeley optical-interferometry pages, one step per source set. Rows
// carry Group "a" (Stanford citations) or "b" (Berkeley citations); the
// merge joins the two sides and keeps targets cited by both.
func (e *Engine) planQ6() plan {
	sides := []struct{ group, domain string }{{"a", "stanford.edu"}, {"b", "berkeley.edu"}}
	cited := make([]map[webgraph.PageID]int, len(sides))
	order := make([][]webgraph.PageID, len(sides))
	var steps []step
	for i, side := range sides {
		cited[i] = map[webgraph.PageID]int{}
		steps = append(steps, step{
			src: e.phraseInDomain(synth.PhraseOpticalInterferometry, side.domain),
			visit: func(_ webgraph.PageID, nbrs []webgraph.PageID) {
				for _, t := range nbrs {
					d := e.R.DomainOf(t)
					if d == "stanford.edu" || d == "berkeley.edu" {
						continue
					}
					if _, ok := cited[i][t]; !ok {
						order[i] = append(order[i], t)
					}
					cited[i][t]++
				}
			},
		})
	}
	return plan{steps: steps, rows: func() []PartialRow {
		var rows []PartialRow
		for i, side := range sides {
			for _, t := range order[i] {
				rows = append(rows, PartialRow{Group: side.group, Key: e.R.Corpus.Pages[t].URL, Value: float64(cited[i][t])})
			}
		}
		return rows
	}}
}

// MergePartials folds K shards' partial rows into exactly the rows a
// single-node Run of q would produce, applying the query's merge
// class:
//
//	Q1, Q2 — sum by key (partial weights/counts), rank by value
//	Q3     — distinct-key union, reported as one base-set-size row
//	Q4     — concatenate, rank and cap 10 per university group
//	Q5     — concatenate, rank and cap 10
//	Q6     — join Group "a"/"b" by key, keep both-cited, rank, cap 25
//
// Partials are folded in slice order and ties rank by key, so the
// merge is deterministic for a fixed shard ordering.
func MergePartials(q ID, parts [][]PartialRow) []Row {
	switch q {
	case Q1, Q2:
		return mergeSum(parts)
	case Q3:
		seen := map[string]bool{}
		for _, part := range parts {
			for _, r := range part {
				seen[r.Key] = true
			}
		}
		return []Row{{Key: "base-set-size", Value: float64(len(seen))}}
	case Q4:
		var rows []Row
		for _, uni := range synth.Universities() {
			var g []Row
			for _, part := range parts {
				for _, r := range part {
					if r.Group == uni {
						g = append(g, Row{Key: r.Key, Value: r.Value})
					}
				}
			}
			sortRows(g)
			if len(g) > 10 {
				g = g[:10]
			}
			rows = append(rows, g...)
		}
		return rows
	case Q5:
		rows := mergeSum(parts)
		if len(rows) > 10 {
			rows = rows[:10]
		}
		return rows
	case Q6:
		a := map[string]float64{}
		b := map[string]float64{}
		for _, part := range parts {
			for _, r := range part {
				if r.Group == "b" {
					b[r.Key] += r.Value
				} else {
					a[r.Key] += r.Value
				}
			}
		}
		var rows []Row
		for k, na := range a {
			if nb := b[k]; na >= 1 && nb >= 1 {
				rows = append(rows, Row{Key: k, Value: na + nb})
			}
		}
		sortRows(rows)
		if len(rows) > 25 {
			rows = rows[:25]
		}
		return rows
	}
	return nil
}

// mergeSum sums partial rows by key and ranks the result.
func mergeSum(parts [][]PartialRow) []Row {
	sums := map[string]float64{}
	for _, part := range parts {
		for _, r := range part {
			sums[r.Key] += r.Value
		}
	}
	rows := make([]Row, 0, len(sums))
	for k, v := range sums {
		rows = append(rows, Row{Key: k, Value: v})
	}
	sortRows(rows)
	return rows
}
