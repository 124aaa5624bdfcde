// Command snquery runs the paper's six complex queries (Table 3)
// against a dataset directory written by snbuild, and reports results
// with navigation-time breakdowns. The S-Node stores are opened as
// built; nothing is rebuilt.
//
//	snbuild -pages 100000 -out ./data
//	snquery -data ./data -query all
//	snquery -data ./data -query 2 -trace -trace-out q2.trace.json
//
// The dataset must hold one shard. A sharded one is queried through
// snrouter in front of one snserve per shard. The baselines' navigation
// per query is Figure 11's (snbench -experiment fig11).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/shard"
	"snode/internal/trace"
)

// options are the validated command-line inputs.
type options struct {
	data     string
	queryID  string
	budget   int64
	rows     int
	traceOn  bool
	traceOut string

	queries []query.ID
}

// usageError prints the problem in flag-package style (message plus
// defaults) and exits 2, the conventional usage-error status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snquery: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// parseFlags validates every flag before any expensive work: malformed
// query selectors, nonsensical budgets, and missing dataset directories
// all fail fast with a usage-style message.
func parseFlags() options {
	var o options
	flag.StringVar(&o.data, "data", "data", "dataset directory written by snbuild (holds manifest.json)")
	flag.StringVar(&o.queryID, "query", "all", "1..6 or all")
	flag.Int64Var(&o.budget, "budget", 4<<20, "cache budget (bytes, > 0)")
	flag.IntVar(&o.rows, "rows", 10, "result rows to print per query (>= 0)")
	flag.BoolVar(&o.traceOn, "trace", false, "trace every query: print its span tree after the results")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace: also write the traces as Chrome trace_event JSON (chrome://tracing) to this file")
	flag.Parse()

	if flag.NArg() > 0 {
		usageError("unexpected argument %q (all inputs are flags)", flag.Arg(0))
	}
	if o.budget <= 0 {
		usageError("-budget must be positive, got %d", o.budget)
	}
	if o.rows < 0 {
		usageError("-rows must be >= 0, got %d", o.rows)
	}
	if o.traceOut != "" && !o.traceOn {
		usageError("-trace-out requires -trace")
	}
	if o.queryID == "all" {
		o.queries = query.All()
	} else {
		qi, err := strconv.Atoi(o.queryID)
		if err != nil || qi < 1 || qi > 6 {
			usageError("-query must be 1..6 or all, got %q", o.queryID)
		}
		o.queries = []query.ID{query.ID(qi)}
	}
	if fi, err := os.Stat(o.data); err != nil || !fi.IsDir() {
		usageError("-data directory %q does not exist (write one with snbuild)", o.data)
	}
	return o
}

// run opens the dataset's one shard and writes each query's navigation
// and rows to w.
func run(o options, w io.Writer) error {
	sh, err := shard.OpenServing(o.data, 0, o.budget, iosim.Model2002())
	if err != nil {
		return err
	}
	defer sh.Close()
	if k := sh.Manifest.NumShards; k != 1 {
		return fmt.Errorf("%s holds %d shards: query a sharded dataset through snrouter, one snserve per shard", o.data, k)
	}
	e, err := query.New(sh.Repo, repo.SchemeSNode)
	if err != nil {
		return err
	}
	if o.traceOn {
		// SampleEvery 1: trace every execution for interactive use.
		e.SetTracer(trace.New(trace.Config{SampleEvery: 1}))
	}
	var traced []*trace.Trace
	for _, q := range o.queries {
		res, err := e.Run(context.Background(), q)
		if err != nil {
			return fmt.Errorf("query %d: %w", q, err)
		}
		fmt.Fprintf(w, "Q%d — %s\n", q, q.Description())
		fmt.Fprintf(w, "  navigation: %v (cpu %v + modeled disk %v), %d seeks, %d bytes, %d loads\n",
			res.Nav.Total().Round(10*time.Microsecond),
			res.Nav.CPU.Round(10*time.Microsecond),
			res.Nav.IO.Round(10*time.Microsecond),
			res.Nav.Seeks, res.Nav.BytesRead, res.Nav.GraphsLoaded)
		for i, row := range res.Rows {
			if i >= o.rows {
				fmt.Fprintf(w, "  ... (%d more rows)\n", len(res.Rows)-i)
				break
			}
			fmt.Fprintf(w, "  %10.3f  %s\n", row.Value, row.Key)
		}
		if res.Trace != nil {
			fmt.Fprintln(w)
			res.Trace.Render(w)
			traced = append(traced, res.Trace)
		}
		fmt.Fprintln(w)
	}
	if o.traceOut == "" || len(traced) == 0 {
		return nil
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, traced...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace(s) to %s (load in chrome://tracing)\n", len(traced), o.traceOut)
	return nil
}

func main() {
	if err := run(parseFlags(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "snquery:", err)
		os.Exit(1)
	}
}
