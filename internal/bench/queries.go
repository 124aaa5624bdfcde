package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/store"
)

// Fig11Cell is one bar of Figure 11: a (query, scheme) navigation time.
type Fig11Cell struct {
	Query  query.ID
	Scheme string
	Nav    time.Duration // CPU + modeled disk
	CPU    time.Duration
	IO     time.Duration
	Loads  int64
}

// Fig11Result holds the chart plus the paper's percentage-reduction
// table (S-Node vs the next best scheme per query).
type Fig11Result struct {
	Cells     []Fig11Cell
	Reduction map[query.ID]float64
}

// fig11Schemes is the paper's Figure 11 set, display order.
func fig11Schemes() []string {
	return []string{repo.SchemeFiles, repo.SchemeDB, repo.SchemeLink3, repo.SchemeSNode}
}

// buildQueryRepo constructs the shared repository for Figures 11/12.
func buildQueryRepo(cfg Config, ws string) (*repo.Repository, error) {
	crawl, err := cfg.Crawl(cfg.QuerySize)
	if err != nil {
		return nil, err
	}
	opt := repo.DefaultOptions(filepath.Join(ws, "queryrepo"))
	opt.Schemes = fig11Schemes()
	opt.CacheBudget = cfg.QueryBudget
	opt.Model = cfg.Model
	opt.Layout = crawl.Order
	return repo.Build(crawl.Corpus, opt)
}

// runQueryCold resets the scheme's caches to budget and executes the
// query, averaging CPU over cfg.Trials runs from cold each time (the
// modeled disk time is deterministic and identical across trials).
func runQueryCold(cfg Config, r *repo.Repository, scheme string, q query.ID, budget int64) (*query.Result, error) {
	e, err := query.New(r, scheme)
	if err != nil {
		return nil, err
	}
	trials := cfg.Trials
	if trials < 1 {
		trials = 1
	}
	var last *query.Result
	var cpu time.Duration
	for t := 0; t < trials; t++ {
		for _, s := range []store.LinkStore{r.Fwd[scheme], r.Rev[scheme]} {
			if cr, ok := s.(store.CacheResetter); ok {
				cr.ResetCache(budget)
			}
		}
		res, err := e.Run(context.Background(), q)
		if err != nil {
			return nil, err
		}
		cpu += res.Nav.CPU
		last = res
	}
	last.Nav.CPU = cpu / time.Duration(trials)
	return last, nil
}

// Queries runs the Figure 11 experiment.
func Queries(cfg Config) (*Fig11Result, error) {
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	r, err := buildQueryRepo(cfg, ws)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	out := &Fig11Result{Reduction: map[query.ID]float64{}}
	best := map[query.ID]time.Duration{}   // best non-snode
	snTime := map[query.ID]time.Duration{} // snode
	for _, scheme := range fig11Schemes() {
		for _, q := range query.All() {
			res, err := runQueryCold(cfg, r, scheme, q, cfg.QueryBudget)
			if err != nil {
				return nil, fmt.Errorf("bench: %s query %d: %w", scheme, q, err)
			}
			nav := res.Nav.Total()
			out.Cells = append(out.Cells, Fig11Cell{
				Query:  q,
				Scheme: scheme,
				Nav:    nav,
				CPU:    res.Nav.CPU,
				IO:     res.Nav.IO,
				Loads:  res.Nav.GraphsLoaded,
			})
			if scheme == repo.SchemeSNode {
				snTime[q] = nav
			} else if cur, ok := best[q]; !ok || nav < cur {
				best[q] = nav
			}
		}
	}
	for _, q := range query.All() {
		if best[q] > 0 {
			out.Reduction[q] = 100 * (1 - float64(snTime[q])/float64(best[q]))
		}
	}
	return out, nil
}

// RenderQueries prints Figure 11 and its reduction table.
func RenderQueries(cfg Config, res *Fig11Result) {
	w := cfg.out()
	fmt.Fprintf(w, "Figure 11: navigation time per query (%d pages, %d KB buffer, cold caches)\n",
		cfg.QuerySize, cfg.QueryBudget>>10)
	fmt.Fprintf(w, "%-6s", "query")
	for _, s := range fig11Schemes() {
		fmt.Fprintf(w, " %14s", s)
	}
	fmt.Fprintln(w)
	byQS := map[query.ID]map[string]Fig11Cell{}
	for _, c := range res.Cells {
		if byQS[c.Query] == nil {
			byQS[c.Query] = map[string]Fig11Cell{}
		}
		byQS[c.Query][c.Scheme] = c
	}
	for _, q := range query.All() {
		fmt.Fprintf(w, "Q%-5d", q)
		for _, s := range fig11Schemes() {
			fmt.Fprintf(w, " %14v", byQS[q][s].Nav.Round(10*time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nreduction in navigation time using S-Node vs next best scheme")
	fmt.Fprintln(w, "(paper: 73.5% / 76.9% / 77.7% / 82.2% / 79.2% / 89.2%)")
	for _, q := range query.All() {
		fmt.Fprintf(w, "Q%d: %.1f%%\n", q, res.Reduction[q])
	}
	fmt.Fprintln(w)
}

// Fig12Row is one buffer size of Figure 12: per-query navigation time
// for queries 1, 5 and 6 under the S-Node scheme.
type Fig12Row struct {
	BudgetKB int64
	Nav      map[query.ID]time.Duration
}

// fig12Queries matches the paper's Figure 12 selection.
func fig12Queries() []query.ID { return []query.ID{query.Q1, query.Q5, query.Q6} }

// BufferSweep runs the Figure 12 experiment: navigation time against
// the S-Node buffer budget.
func BufferSweep(cfg Config) ([]Fig12Row, error) {
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	crawl, err := cfg.Crawl(cfg.QuerySize)
	if err != nil {
		return nil, err
	}
	opt := repo.DefaultOptions(filepath.Join(ws, "fig12repo"))
	opt.Schemes = []string{repo.SchemeSNode}
	opt.CacheBudget = cfg.QueryBudget
	opt.Model = cfg.Model
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	budgets := []int64{
		cfg.QueryBudget / 128, cfg.QueryBudget / 64, cfg.QueryBudget / 32,
		cfg.QueryBudget / 16, cfg.QueryBudget / 8, cfg.QueryBudget / 4,
		cfg.QueryBudget / 2, cfg.QueryBudget, cfg.QueryBudget * 2,
		cfg.QueryBudget * 4,
	}
	var rows []Fig12Row
	for _, b := range budgets {
		if b < 4<<10 {
			continue
		}
		row := Fig12Row{BudgetKB: b >> 10, Nav: map[query.ID]time.Duration{}}
		for _, q := range fig12Queries() {
			res, err := runQueryCold(cfg, r, repo.SchemeSNode, q, b)
			if err != nil {
				return nil, err
			}
			row.Nav[q] = res.Nav.Total()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderBufferSweep prints Figure 12.
func RenderBufferSweep(cfg Config, rows []Fig12Row) {
	w := cfg.out()
	fmt.Fprintln(w, "Figure 12: S-Node navigation time vs memory buffer size")
	fmt.Fprintf(w, "%12s", "buffer(KB)")
	for _, q := range fig12Queries() {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("Q%d", q))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%12d", r.BudgetKB)
		for _, q := range fig12Queries() {
			fmt.Fprintf(w, " %14v", r.Nav[q].Round(10*time.Microsecond))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper: after an initial drop, curves stay flat once the working set fits)")
	fmt.Fprintln(w)
}
