// Package partition implements the iterative partition refinement of
// paper §3.2, which computes the page grouping an S-Node representation
// is built from:
//
//  1. The initial partition P0 groups pages by registered domain (top
//     two DNS levels).
//  2. Each iteration picks a random element and splits it, using URL
//     split (group by URL prefix, one directory deeper each time, up to
//     3 levels) while prefixes remain useful, then clustered split
//     (k-means over adjacency-to-supernode bit vectors, k initialized to
//     the element's supernode out-degree and incremented by 2 on abort).
//  3. Refinement stops after abortmax consecutive failed clustered
//     splits, with abortmax a fixed fraction (default 6%) of the element
//     count.
//
// The resulting partition satisfies the paper's three properties: pages
// with similar adjacency lists grouped together, domain purity, and
// lexicographic URL locality within elements.
package partition

import (
	"context"
	"fmt"
	"sort"
	"time"

	"snode/internal/iosim"
	"snode/internal/kmeans"
	"snode/internal/metrics"
	"snode/internal/randutil"
	"snode/internal/trace"
	"snode/internal/urlutil"
	"snode/internal/webgraph"
	"snode/internal/workpool"
)

// StoppingRule selects how refinement decides it is done.
type StoppingRule int

const (
	// StopExhaustive tracks the set of still-splittable elements
	// explicitly and stops when it is empty — the paper's "ideal
	// stopping point", which it approximates with abortmax because
	// checking it at their scale was prohibitive. At our scale it is
	// affordable and removes stochastic early termination.
	StopExhaustive StoppingRule = iota
	// StopAbortMax is the paper's criterion: stop after abortmax
	// consecutive clustered-split aborts, abortmax a fraction of the
	// element count.
	StopAbortMax
)

// Config controls refinement. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	Seed uint64
	// Stopping selects the termination rule.
	Stopping StoppingRule
	// AbortMaxFrac sets abortmax as a fraction of the element count
	// (paper: 6%); used when Stopping == StopAbortMax.
	AbortMaxFrac float64
	// MinSplitSize: elements smaller than this are never split (they
	// count as clustered-split aborts, matching the paper's "unable to
	// further split").
	MinSplitSize int
	// Workers is the refinement parallelism: each round's splittable
	// elements are examined concurrently on a workpool of this width.
	// <= 0 selects runtime.GOMAXPROCS(0). The result is identical for
	// every width (see Refine).
	Workers int
	// IO, when non-nil, charges a modeled repository scan (one seek plus
	// the element's adjacency bytes) per clustered-split attempt — the
	// build-side analog of the serving path's simulated 2002 disk. Under
	// iosim pacing the scans stall real time, which concurrent workers
	// overlap. Pacing never affects the resulting partition.
	IO *iosim.Accountant
	// Metrics, when non-nil, receives build-stage instrumentation:
	// refine_rounds / url_splits / clustered_splits / aborts /
	// elements_split counters, an elements gauge, and a per-round
	// latency histogram, all under the "build_" prefix.
	Metrics *metrics.Registry
}

// DefaultConfig returns the configuration used throughout the
// experiments.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		AbortMaxFrac: 0.06,
		MinSplitSize: 256,
	}
}

// The guards on the two splits. Nothing has ever run with other values,
// and every artifact's bytes depend on them.
const (
	// maxURLDepth is the deepest directory level URL split uses
	// (paper: 3).
	maxURLDepth = 3
	// kMeansMaxIter bounds each k-means run (stands in for the paper's
	// wall-clock bound).
	kMeansMaxIter = 30
	// kMeansAttempts is how many times clustered split retries with
	// k+2 before aborting (paper: "a fixed number of attempts").
	kMeansAttempts = 3
	// maxClusterK caps the initial k (the element's supernode
	// out-degree) — the analog of the paper's wall-clock bound, which
	// k-means with very large k would always exceed.
	maxClusterK = 8
	// splitQuality is the maximum WithinSS/TotalSS ratio a clustered
	// split may have to be accepted: a split that barely reduces
	// scatter is chunking one homogeneous cloud, not discovering
	// adjacency-list structure, and is treated as an abort.
	splitQuality = 0.65
)

// Element is one member of a partition: a set of pages from a single
// domain.
type Element struct {
	Pages []webgraph.PageID // sorted ascending
	// depth is the URL-prefix depth the NEXT URL split should use;
	// clusterOnly marks elements past maxURLDepth.
	depth       int
	clusterOnly bool
}

// Partition is the refinement result.
type Partition struct {
	Elements []Element
	// Assign maps every page to its element index.
	Assign []int32
	// Stats from the run.
	Iterations      int // elements examined, across all rounds
	Rounds          int
	URLSplits       int
	ClusteredSplits int
	Aborts          int
}

// NumElements reports the number of partition elements (supernodes).
func (p *Partition) NumElements() int { return len(p.Elements) }

// Validate checks the partition invariants: every page in exactly one
// element, Assign consistent, elements domain-pure and sorted.
func (p *Partition) Validate(c *webgraph.Corpus) error {
	n := c.Graph.NumPages()
	if len(p.Assign) != n {
		return fmt.Errorf("partition: Assign length %d != %d pages", len(p.Assign), n)
	}
	seen := make([]bool, n)
	for ei, e := range p.Elements {
		if len(e.Pages) == 0 {
			return fmt.Errorf("partition: element %d empty", ei)
		}
		dom := c.Pages[e.Pages[0]].Domain
		for i, pg := range e.Pages {
			if i > 0 && e.Pages[i-1] >= pg {
				return fmt.Errorf("partition: element %d pages not sorted", ei)
			}
			if seen[pg] {
				return fmt.Errorf("partition: page %d in two elements", pg)
			}
			seen[pg] = true
			if p.Assign[pg] != int32(ei) {
				return fmt.Errorf("partition: Assign[%d]=%d, element %d", pg, p.Assign[pg], ei)
			}
			if c.Pages[pg].Domain != dom {
				return fmt.Errorf("partition: element %d mixes domains %s and %s",
					ei, dom, c.Pages[pg].Domain)
			}
		}
	}
	for pg, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: page %d unassigned", pg)
		}
	}
	return nil
}

// InitialByDomain computes P0: one element per registered domain.
// Page IDs are assigned in (domain, URL) order by the generator, so
// each domain is a contiguous ID range; the implementation nevertheless
// only relies on the Domain metadata.
func InitialByDomain(c *webgraph.Corpus) *Partition {
	n := c.Graph.NumPages()
	byDomain := map[string][]webgraph.PageID{}
	var order []string
	for pid := 0; pid < n; pid++ {
		d := c.Pages[pid].Domain
		if _, ok := byDomain[d]; !ok {
			order = append(order, d)
		}
		byDomain[d] = append(byDomain[d], webgraph.PageID(pid))
	}
	sort.Strings(order)
	p := &Partition{Assign: make([]int32, n)}
	for _, d := range order {
		pages := byDomain[d]
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		ei := int32(len(p.Elements))
		for _, pg := range pages {
			p.Assign[pg] = ei
		}
		p.Elements = append(p.Elements, Element{Pages: pages, depth: 0})
	}
	return p
}

// Refine runs the full iterative refinement and returns the final
// partition. It is RefineCtx without cancellation or tracing.
func Refine(c *webgraph.Corpus, cfg Config) (*Partition, error) {
	return RefineCtx(context.Background(), c, cfg)
}

// splitResult is one element's outcome from a refinement round. A nil
// groups is an abort (unsplittable at this granularity).
type splitResult struct {
	groups []Element
	url    bool // groups came from URL split, not clustered split
}

// modeled repository-scan cost per page record and per stored link,
// the flat layout a 2002 build would stream the crawl from.
const (
	scanPageBytes = 16
	scanEdgeBytes = 8
)

// elementRNG derives the deterministic RNG stream for examining one
// element in one refinement round. Seeding from (cfg.Seed, the
// element's smallest page ID, round) — instead of drawing from one
// shared sequential stream — is what makes parallel refinement
// bit-identical regardless of worker count and GOMAXPROCS: an
// element's k-means seeds depend only on what is being split and when,
// never on goroutine scheduling.
func elementRNG(seed uint64, first webgraph.PageID, round int) *randutil.RNG {
	return randutil.NewRNG(seed).Split(uint64(first)).Split(uint64(round))
}

// trySplit examines one element against the round-start partition and
// proposes its split. It mutates only its own element (the clusterOnly
// promotion), so a round may examine all live elements concurrently.
func trySplit(ctx context.Context, c *webgraph.Corpus, p *Partition, ei int, cfg Config, round int) splitResult {
	e := &p.Elements[ei]
	// URL split is cheap and applies regardless of element size; a
	// shallow crawl of a domain still separates into its top-level
	// directories. Only clustered split is size-gated below.
	if !e.clusterOnly {
		if groups := urlSplit(c, e); groups != nil {
			return splitResult{groups: groups, url: true}
		}
		// No useful prefix remains; fall through to clustered split.
		e.clusterOnly = true
	}
	if len(e.Pages) < cfg.MinSplitSize {
		return splitResult{}
	}
	if cfg.IO != nil {
		var edges int64
		for _, pg := range e.Pages {
			edges += int64(len(c.Graph.Out(pg)))
		}
		cfg.IO.Scan(ctx, scanPageBytes*int64(len(e.Pages))+scanEdgeBytes*edges)
	}
	rng := elementRNG(cfg.Seed, e.Pages[0], round)
	return splitResult{groups: clusteredSplit(c, p, ei, cfg, rng)}
}

// RefineCtx runs deterministic round-based parallel refinement: each
// round gathers every live splittable element, examines them all
// concurrently on a worker pool against the frozen round-start
// partition (an element's split touches only its own pages, so
// examinations are independent), then applies the proposed splits in
// ascending element order. Split children become the next round's
// candidates and aborted elements are dropped, so the candidate set is
// compacted every round — the old single-element loop appended
// children to a queue and pruned stale entries only on random
// collisions, growing it without bound on large corpora.
//
// The result is bit-identical for every cfg.Workers value and
// GOMAXPROCS: per-element RNG streams are derived from
// (Seed, smallest page ID, round), k-means is order-deterministic, and
// application order is sorted, so scheduling never leaks into the
// partition.
//
// StopAbortMax keeps the paper's semantics under rounds: outcomes are
// consumed in application order, counting consecutive aborts across
// round boundaries and stopping — mid-round, discarding the rest, as
// the sequential loop would — once they reach abortmax (recomputed per
// element from the current element count).
func RefineCtx(ctx context.Context, c *webgraph.Corpus, cfg Config) (*Partition, error) {
	if cfg.MinSplitSize < 2 || (cfg.Stopping == StopAbortMax && cfg.AbortMaxFrac <= 0) {
		return nil, fmt.Errorf("partition: invalid config %+v", cfg)
	}
	ctx, span := trace.Start(ctx, "refine")
	defer span.End()
	p := InitialByDomain(c)
	// A safety cap on elements examined, across all rounds.
	maxIter := 200 * (1 + c.Graph.NumPages()/cfg.MinSplitSize)
	var (
		mRounds, mURL, mClustered, mAborts, mSplit *metrics.Counter
		mElements                                  *metrics.Gauge
		mRoundNs                                   *metrics.Histogram
	)
	if cfg.Metrics != nil {
		mRounds = cfg.Metrics.Counter("build_refine_rounds")
		mURL = cfg.Metrics.Counter("build_url_splits")
		mClustered = cfg.Metrics.Counter("build_clustered_splits")
		mAborts = cfg.Metrics.Counter("build_refine_aborts")
		mSplit = cfg.Metrics.Counter("build_elements_split")
		mElements = cfg.Metrics.Gauge("build_elements")
		mRoundNs = cfg.Metrics.Histogram("build_refine_round_ns", nil)
		mElements.Set(int64(len(p.Elements)))
	}
	pool := workpool.New(cfg.Workers)

	abortMax := func() int {
		am := int(cfg.AbortMaxFrac * float64(len(p.Elements)))
		if am < 1 {
			am = 1
		}
		return am
	}

	candidates := make([]int, len(p.Elements))
	for i := range candidates {
		candidates[i] = i
	}
	consecutiveAborts := 0
	stopped := false
	for round := 0; len(candidates) > 0 && !stopped && p.Iterations < maxIter; round++ {
		batch := candidates
		if rem := maxIter - p.Iterations; len(batch) > rem {
			batch = batch[:rem]
		}
		sort.Ints(batch)
		roundStart := time.Now()
		rctx, rspan := trace.Start(ctx, "refine.round")
		rspan.SetAttr("round", int64(round))
		rspan.SetAttr("candidates", int64(len(batch)))

		results := make([]splitResult, len(batch))
		round := round // fixed per-closure for the RNG derivation
		if err := pool.ForEachCtx(rctx, len(batch), func(ctx context.Context, i int) error {
			results[i] = trySplit(ctx, c, p, batch[i], cfg, round)
			return nil
		}); err != nil {
			rspan.End()
			return nil, err
		}

		// Apply in ascending element order (batch is sorted), counting
		// aborts exactly as the sequential loop would have.
		var next []int
		var urlSplits, clustered, aborts int64
		for i, ei := range batch {
			if cfg.Stopping == StopAbortMax && consecutiveAborts >= abortMax() {
				stopped = true
				break
			}
			p.Iterations++
			r := results[i]
			if r.groups == nil {
				p.Aborts++
				aborts++
				consecutiveAborts++
				continue
			}
			nBefore := len(p.Elements)
			applySplit(p, ei, r.groups)
			next = append(next, ei)
			for j := nBefore; j < len(p.Elements); j++ {
				next = append(next, j)
			}
			if r.url {
				p.URLSplits++
				urlSplits++
			} else {
				p.ClusteredSplits++
				clustered++
			}
			consecutiveAborts = 0
		}
		p.Rounds++
		candidates = next

		rspan.SetAttr("url_splits", urlSplits)
		rspan.SetAttr("clustered_splits", clustered)
		rspan.SetAttr("aborts", aborts)
		rspan.End()
		if cfg.Metrics != nil {
			mRounds.Inc()
			mURL.Add(urlSplits)
			mClustered.Add(clustered)
			mAborts.Add(aborts)
			mSplit.Add(urlSplits + clustered)
			mElements.Set(int64(len(p.Elements)))
			mRoundNs.ObserveDuration(time.Since(roundStart))
		}
	}
	span.SetAttr("rounds", int64(p.Rounds))
	span.SetAttr("elements", int64(len(p.Elements)))
	return p, nil
}

// urlSplit groups the element's pages by URL prefix, starting at the
// element's next depth and deepening until some depth separates the
// pages (or maxURLDepth is exhausted). It returns nil when no prefix up to
// maxURLDepth splits the element; otherwise the resulting groups, each
// tagged with the depth to use next.
func urlSplit(c *webgraph.Corpus, e *Element) []Element {
	for depth := e.depth; depth <= maxURLDepth; depth++ {
		groups := map[string][]webgraph.PageID{}
		var order []string
		for _, pg := range e.Pages {
			pref := urlutil.PrefixAtDepth(c.Pages[pg].URL, depth)
			if _, ok := groups[pref]; !ok {
				order = append(order, pref)
			}
			groups[pref] = append(groups[pref], pg)
		}
		if len(groups) < 2 {
			continue
		}
		sort.Strings(order)
		out := make([]Element, 0, len(groups))
		for _, pref := range order {
			pages := groups[pref]
			sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
			out = append(out, Element{
				Pages:       pages,
				depth:       depth + 1,
				clusterOnly: depth+1 > maxURLDepth,
			})
		}
		return out
	}
	return nil
}

// clusteredSplit runs the paper's k-means procedure: bit vectors over
// the element's out-supernodes, k starting at the supernode out-degree,
// retried with k+2 on abort. Returns nil when the split fails.
func clusteredSplit(c *webgraph.Corpus, p *Partition, ei int, cfg Config, rng *randutil.RNG) []Element {
	e := &p.Elements[ei]
	// Build sparse adjacency-to-supernode signatures. Dimensions are
	// target element indices, densified.
	dimOf := map[int32]int32{}
	points := make([]kmeans.Point, len(e.Pages))
	for i, pg := range e.Pages {
		var pt kmeans.Point
		for _, q := range c.Graph.Out(pg) {
			te := p.Assign[q]
			if te == int32(ei) {
				continue // intranode links are not part of the signature
			}
			d, ok := dimOf[te]
			if !ok {
				d = int32(len(dimOf))
				dimOf[te] = d
			}
			pt = append(pt, d)
		}
		points[i] = kmeans.SortPoint(pt)
	}
	k := len(dimOf) // supernode out-degree of this element (paper's k)
	if k < 2 {
		k = 2
	}
	// The paper bounds each k-means run by wall-clock time; with very
	// large k the bound is always exceeded, so in practice k is capped
	// by what the budget affords.
	if k > maxClusterK {
		k = maxClusterK
	}
	if k > len(e.Pages)/2 {
		k = len(e.Pages) / 2
	}
	minChild := cfg.MinSplitSize / 3
	if minChild < 2 {
		minChild = 2
	}
	for attempt := 0; attempt < kMeansAttempts; attempt++ {
		res, err := kmeans.Run(points, kmeans.Config{
			K:             k + 2*attempt,
			MaxIterations: kMeansMaxIter,
			Seed:          rng.Uint64(),
		})
		if err == kmeans.ErrDegenerate {
			return nil // cannot split: identical signatures
		}
		if err == kmeans.ErrAborted {
			continue // paper: increase k by 2 and repeat
		}
		if err != nil {
			return nil
		}
		if res.NumClusters < 2 {
			return nil
		}
		if res.TotalSS > 0 && res.WithinSS > splitQuality*res.TotalSS {
			return nil // no real cluster structure at this granularity
		}
		out := make([]Element, res.NumClusters)
		for i, pg := range e.Pages {
			ci := res.Assign[i]
			out[ci].Pages = append(out[ci].Pages, pg)
		}
		// Merge fragments: clusters smaller than minChild reflect noise,
		// not adjacency-list structure; folding them into the largest
		// cluster keeps elements at useful sizes (the paper's partitions
		// average hundreds of pages per element).
		largest := 0
		for i := 1; i < len(out); i++ {
			if len(out[i].Pages) > len(out[largest].Pages) {
				largest = i
			}
		}
		kept := out[:0]
		keptLargest := -1
		var fragments []webgraph.PageID
		for i := range out {
			if i != largest && len(out[i].Pages) < minChild {
				fragments = append(fragments, out[i].Pages...)
				continue
			}
			if i == largest {
				keptLargest = len(kept)
			}
			kept = append(kept, out[i])
		}
		out = kept
		out[keptLargest].Pages = append(out[keptLargest].Pages, fragments...)
		if len(out) < 2 {
			return nil // no real structure found
		}
		for i := range out {
			out[i].clusterOnly = true
			out[i].depth = e.depth
			sort.Slice(out[i].Pages, func(a, b int) bool { return out[i].Pages[a] < out[i].Pages[b] })
		}
		return out
	}
	return nil
}

// applySplit replaces element ei with the given groups, preserving the
// paper's refinement semantics (Pi+1 = Pi \ {Nij} ∪ {A1..Am}).
func applySplit(p *Partition, ei int, groups []Element) {
	p.Elements[ei] = groups[0]
	for _, pg := range groups[0].Pages {
		p.Assign[pg] = int32(ei)
	}
	for _, g := range groups[1:] {
		ni := int32(len(p.Elements))
		for _, pg := range g.Pages {
			p.Assign[pg] = ni
		}
		p.Elements = append(p.Elements, g)
	}
}
