// Package bench regenerates every table and figure of the paper's
// evaluation section (§4) over the synthetic corpus:
//
//	Figure 9(a)/9(b) — supernode/superedge growth vs repository size
//	Figure 10        — Huffman-encoded supernode-graph size
//	Table 1          — bits/edge for Huffman, Link3, S-Node (WG and WGT)
//	Table 2          — in-memory sequential/random access times
//	Figure 11        — per-query navigation time across four schemes
//	Figure 12        — navigation time vs buffer size (queries 1, 5, 6)
//
// plus ablations of the design choices (§3): reference-encoding window,
// positive/negative superedge choice, partition variants, and the exact
// (Edmonds) reference-selection strategy.
//
// Absolute numbers differ from the paper (synthetic corpus, scaled
// sizes, modeled 2002 disk); the experiments preserve the comparisons'
// shape: who wins, by roughly what factor, and where behaviour
// saturates. EXPERIMENTS.md records paper-vs-measured for each.
//
// The package reproduces the paper and measures nothing else. How the
// system performs as a server, a builder or a sharded fleet is the
// business of the suite in benchmark/ (one schema, five workloads,
// rerun every PR); an experiment added here would be a second,
// incomparable harness.
package bench

import (
	"fmt"
	"io"
	"os"
	"sync"

	"snode/internal/iosim"
	"snode/internal/synth"
)

// Config controls the experiment scale.
type Config struct {
	// Sizes is the repository-size series (the paper's 25/50/75/100/115
	// million pages, scaled).
	Sizes []int
	// Table1Sizes are the sizes averaged in Table 1 (paper: 25/50/100M).
	Table1Sizes []int
	// QuerySize is the data-set size for Figures 11/12 (paper: 100M).
	QuerySize int
	// QueryBudget is the representation memory bound for Figure 11
	// (paper: 325 MB against a few-GB graph; scaled to ~8% of the flat
	// data size).
	QueryBudget int64
	// Trials averages CPU time over repeated query runs (paper: 6).
	Trials int
	// Seed feeds the crawl generator.
	Seed uint64
	// Model is the simulated disk.
	Model iosim.Model
	// Workspace holds build artifacts; empty means a temp directory.
	Workspace string
	// Out receives rendered tables (default os.Stdout).
	Out io.Writer
}

// Default returns the full-scale configuration (what cmd/snbench runs).
func Default() Config {
	return Config{
		Sizes:       []int{10000, 25000, 50000, 75000, 100000},
		Table1Sizes: []int{25000, 50000, 100000},
		QuerySize:   100000,
		QueryBudget: 1 << 20,
		Trials:      3,
		Seed:        20030226,
		Model:       iosim.Model2002(),
		Out:         os.Stdout,
	}
}

// Quick returns a reduced configuration for the in-tree testing.B
// benchmarks and smoke runs.
func Quick() Config {
	c := Default()
	c.Sizes = []int{4000, 8000, 16000}
	c.Table1Sizes = []int{8000, 16000}
	c.QuerySize = 16000
	c.QueryBudget = 128 << 10
	c.Trials = 1
	return c
}

func (c *Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c *Config) workspace() (string, func(), error) {
	if c.Workspace != "" {
		if err := os.MkdirAll(c.Workspace, 0o755); err != nil {
			return "", nil, err
		}
		return c.Workspace, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "snbench-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// crawlCache memoizes generated crawls by size so experiments sharing a
// scale do not regenerate (generation is deterministic in the seed).
type crawlCache struct {
	mu     sync.Mutex
	seed   uint64
	crawls map[int]*synth.Crawl
}

var sharedCrawls = &crawlCache{crawls: map[int]*synth.Crawl{}}

func (cc *crawlCache) get(seed uint64, n int) (*synth.Crawl, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.seed != seed {
		cc.crawls = map[int]*synth.Crawl{}
		cc.seed = seed
	}
	if c, ok := cc.crawls[n]; ok {
		return c, nil
	}
	cfg := synth.DefaultConfig(n)
	cfg.Seed = seed
	c, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	cc.crawls[n] = c
	return c, nil
}

// Crawl returns the (cached) crawl of the given size under cfg.Seed.
func (c *Config) Crawl(n int) (*synth.Crawl, error) {
	return sharedCrawls.get(c.Seed, n)
}

// megabytes renders bytes as MB with two decimals.
func megabytes(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1<<20))
}
