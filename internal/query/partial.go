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
	"strings"
	"sync"

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
// (Q4: the university; Q6: which source set cited the target). Pages is
// a strictly ascending page set, which only Q3's row carries: its
// base-set members, as IDs rather than one keyed row apiece.
type PartialRow struct {
	Group string
	Key   string
	Value float64
	Pages []webgraph.PageID
}

// PartialResult is one shard's contribution to a scattered query.
type PartialResult struct {
	Rows []PartialRow
	Nav  NavStats
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
// navigation (never by map iteration) — or, when they fail, abort (nil
// for a plan that holds nothing to give back).
type plan struct {
	steps []step
	rows  func() []PartialRow
	abort func()
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
			filter: e.q1Filter,
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				// A page contributes its weight once per domain it points
				// to. A domain is one ID range, so in ascending order a
				// page's targets in one domain are adjacent.
				slices.Sort(nbrs)
				prev := ""
				for i, t := range nbrs {
					d := e.R.DomainOf(t)
					if i > 0 && d == prev {
						continue
					}
					prev = d
					if _, ok := weights[d]; !ok {
						order = append(order, d)
					}
					weights[d] += e.R.PageRank[p]
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
	if e.stanford == nil {
		// Domain ranges are global, so every shard fails identically.
		return plan{}, fmt.Errorf("query: stanford.edu not in corpus")
	}
	comics := synth.Comics()
	dr := e.R.Domains["stanford.edu"]
	// C1 comes from the text index, but is counted as the executor
	// visits each Stanford page so that it is restricted to owned pages
	// by the same check as C2. hits[i] is comic i's Stanford pages,
	// ascending, and the executor visits the Stanford pages in ascending
	// order, so each list is walked once from its front.
	hits := make([][]webgraph.PageID, len(comics))
	sites := make([]store.DomainRange, len(comics))
	for i, c := range comics {
		hits[i] = e.R.Text.PagesWithAtLeast(c.Words, 2, dr.Lo, dr.Hi)
		sites[i] = e.R.Domains[c.Site]
	}
	counts := make([]int, len(comics))
	return plan{
		steps: []step{{
			src:    e.stanford,
			filter: e.q2Filter,
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				for i, h := range hits {
					for len(h) > 0 && h[0] < p {
						h = h[1:]
					}
					if len(h) > 0 && h[0] == p {
						counts[i]++
					}
					hits[i] = h
				}
				for _, t := range nbrs {
					for i, site := range sites {
						if site.Contains(t) {
							counts[i]++
							break
						}
					}
				}
			},
		}},
		rows: func() []PartialRow {
			rows := make([]PartialRow, 0, len(comics))
			for i, c := range comics {
				rows = append(rows, PartialRow{Key: c.Name, Value: float64(counts[i])})
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
// cappedIn(p) for the p ∈ S it owns. Rows: one, whose Pages are the
// base-set members, ascending; merge by counting the union. The members
// are a bitset over the corpus's page IDs, so they come out in order by
// walking its words; the bitset is recycled (memberSets).
func (e *Engine) planQ3() plan {
	s := pagerank.TopK(e.R.PageRank, e.R.Text.Lookup(synth.PhraseInternetCensorship), 100)
	// Navigate in page-ID order (sort the fetch set before touching the
	// representation — the classic RID-sort, which every scheme's
	// on-disk clustering benefits from).
	slices.Sort(s)
	set := memberSets.Get().(*[]uint64)
	words := (len(e.R.Corpus.Pages) + 63) / 64
	if len(*set) < words {
		*set = make([]uint64, words)
	}
	members := (*set)[:words]
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
			pages := pagesOf(members)
			memberSets.Put(set)
			return []PartialRow{{Pages: pages}}
		},
		abort: func() {
			clear(members)
			memberSets.Put(set)
		},
	}
}

// memberSets recycles planQ3's member bitsets, all zeros while pooled:
// pagesOf clears the words it reads, and a failed navigation the whole
// set. A set longer than a corpus needs is used in part.
var memberSets = sync.Pool{New: func() any { return new([]uint64) }}

// pagesOf lists the members of a page bitset, ascending, in one slice of
// exactly their number, and clears the bitset.
func pagesOf(members []uint64) []webgraph.PageID {
	n := 0
	for _, w := range members {
		n += bits.OnesCount64(w)
	}
	pages := make([]webgraph.PageID, 0, n)
	for k, w := range members {
		for ; w != 0; w &= w - 1 {
			pages = append(pages, webgraph.PageID(k<<6|bits.TrailingZeros64(w)))
		}
		members[k] = 0
	}
	return pages
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
// Group and the page's URL as Key; merge ranks and caps 10 per group,
// and names each row it keeps "university URL".
func (e *Engine) planQ4() plan {
	var rows []PartialRow
	var steps []step
	for _, uni := range synth.Universities() {
		home := e.R.Domains[uni]
		steps = append(steps, step{
			src: e.phraseInDomain(synth.PhraseQuantumCryptography, uni),
			rev: true,
			visit: func(p webgraph.PageID, nbrs []webgraph.PageID) {
				n := 0
				for _, src := range nbrs {
					if !home.Contains(src) {
						n++
					}
				}
				rows = append(rows, PartialRow{Group: uni, Key: e.R.Corpus.Pages[p].URL, Value: float64(n)})
			},
		})
	}
	return plan{steps: steps, rows: func() []PartialRow { return rows }}
}

// planQ5 — computer-music pages by in-links from within the set. Rows:
// the .edu members with their counts; merge ranks and caps 10.
func (e *Engine) planQ5() plan {
	var rows []PartialRow
	return plan{
		steps: []step{{
			src:    e.music,
			rev:    true,
			filter: e.q5Filter,
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
	stanford, berkeley := e.R.Domains["stanford.edu"], e.R.Domains["berkeley.edu"]
	cited := make([]map[webgraph.PageID]int, len(sides))
	order := make([][]webgraph.PageID, len(sides))
	var steps []step
	for i, side := range sides {
		cited[i] = map[webgraph.PageID]int{}
		steps = append(steps, step{
			src: e.phraseInDomain(synth.PhraseOpticalInterferometry, side.domain),
			visit: func(_ webgraph.PageID, nbrs []webgraph.PageID) {
				for _, t := range nbrs {
					if stanford.Contains(t) || berkeley.Contains(t) {
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
//	Q3     — union of the rows' page sets, reported as one
//	         base-set-size row (each set strictly ascending, as planQ3
//	         emits it and serve.DecodePartial holds a shard's leg to)
//	Q4     — concatenate, rank and cap 10 per university group, each
//	         kept URL prefixed with its university
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
		sets := make([][]webgraph.PageID, 0, 8) // on the stack up to 8 rows
		for _, part := range parts {
			for _, r := range part {
				sets = append(sets, r.Pages)
			}
		}
		return []Row{{Key: "base-set-size", Value: float64(unionSize(sets))}}
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
			for _, r := range g {
				rows = append(rows, Row{Key: uni + " " + r.Key, Value: r.Value})
			}
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

// unionSize counts the distinct pages of strictly ascending sets: a merge
// that advances every set whose next page is the smallest, so a page in
// several sets counts once. It consumes sets.
func unionSize(sets [][]webgraph.PageID) int {
	for n := 0; ; n++ {
		least, found := webgraph.PageID(0), false
		for _, s := range sets {
			if len(s) > 0 && (!found || s[0] < least) {
				least, found = s[0], true
			}
		}
		if !found {
			return n
		}
		for i, s := range sets {
			if len(s) > 0 && s[0] == least {
				sets[i] = s[1:]
			}
		}
	}
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
