package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
)

// navTimes is the part of a navigation line that is measured, not
// counted: wall, CPU and modeled-disk durations.
var navTimes = regexp.MustCompile(`navigation: .*\), `)

// TestRunMatchesRepoBuild: Q1–Q6 over a one-shard dataset give the
// rows, seeks, bytes and graph loads that the query engine gives over
// repo.Build of the same crawl.
func TestRunMatchesRepoBuild(t *testing.T) {
	const budget = 1 << 20
	crawl, err := synth.Generate(synth.DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(t.TempDir(), "data")
	if _, err := shard.Build(crawl, 1, data, snode.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(options{data: data, budget: budget, rows: 1 << 30, queries: query.All()}, &got); err != nil {
		t.Fatal(err)
	}

	opt := repo.DefaultOptions(t.TempDir())
	opt.Schemes = []string{repo.SchemeSNode}
	opt.CacheBudget = budget
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, q := range query.All() {
		res, err := e.Run(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("Q%d: no rows: the comparison would prove nothing", q)
		}
		fmt.Fprintf(&want, "Q%d — %s\n  navigation: %d seeks, %d bytes, %d loads\n",
			q, q.Description(), res.Nav.Seeks, res.Nav.BytesRead, res.Nav.GraphsLoaded)
		for _, row := range res.Rows {
			fmt.Fprintf(&want, "  %10.3f  %s\n", row.Value, row.Key)
		}
		fmt.Fprintln(&want)
	}
	if g := navTimes.ReplaceAllString(got.String(), "navigation: "); g != want.String() {
		t.Errorf("snquery -data printed\n%s\nthe engine over repo.Build gives\n%s", g, want.String())
	}
}

// TestRunRefusesShardedDataset: a dataset of two shards is refused with
// an error that sends the user to snrouter.
func TestRunRefusesShardedDataset(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(t.TempDir(), "data")
	if _, err := shard.Build(crawl, 2, data, snode.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run(options{data: data, budget: 1 << 20, rows: 10, queries: query.All()}, &out)
	if err == nil || !strings.Contains(err.Error(), "snrouter") || !strings.Contains(err.Error(), "2 shards") {
		t.Fatalf("err = %v, want a refusal of 2 shards naming snrouter", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before refusing", out.String())
	}
}
