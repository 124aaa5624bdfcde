// Command snbench regenerates the paper's evaluation tables and
// figures (§4) over the synthetic corpus:
//
//	snbench -experiment all
//	snbench -experiment fig9      # + fig10 (scalability)
//	snbench -experiment table1    # compression
//	snbench -experiment table2    # in-memory access times
//	snbench -experiment fig11     # query navigation times
//	snbench -experiment fig12     # buffer-size sweep
//	snbench -experiment ablation  # §3 design-choice studies
//
// -quick runs a reduced scale for smoke testing; -csv also writes each
// table as a CSV file. That is all it does: how the system performs as
// a server, a builder or a fleet is measured by the suite in
// benchmark/ (go run ./benchmark), not here.
//
// Experiments live in one registry; -experiment all runs every entry
// in order (cmd/snbench's tests pin this).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"snode/internal/bench"
)

// runFlags carries the parsed command line into the experiment
// runners.
type runFlags struct {
	cfg    bench.Config
	csvDir string
}

// experimentSpec is one registry entry. name is the canonical
// -experiment value; aliases also select it (fig9 and fig10 are one
// run).
type experimentSpec struct {
	name    string
	aliases []string
	desc    string
	run     func(*runFlags) error
}

// experiments is the registry -experiment selects from; "all" runs
// every entry in this order.
func experiments() []experimentSpec {
	return []experimentSpec{
		{name: "fig9", aliases: []string{"fig10"}, desc: "supernode/superedge scalability", run: table(bench.Scalability, bench.RenderScalability, bench.ScalabilityCSV)},
		{name: "table1", desc: "bits/edge compression comparison", run: table(bench.Compression, bench.RenderCompression, bench.CompressionCSV)},
		{name: "table2", desc: "in-memory access times", run: table(bench.Access, bench.RenderAccess, bench.AccessCSV)},
		{name: "fig11", desc: "per-query navigation time", run: table(bench.Queries, bench.RenderQueries, bench.QueriesCSV)},
		{name: "fig12", desc: "navigation time vs buffer size", run: table(bench.BufferSweep, bench.RenderBufferSweep, bench.BufferSweepCSV)},
		{name: "ablation", desc: "§3 design-choice studies", run: runAblation},
	}
}

// experimentNames lists every selectable -experiment value.
func experimentNames() []string {
	names := []string{"all"}
	for _, s := range experiments() {
		names = append(names, s.name)
		names = append(names, s.aliases...)
	}
	return names
}

// selectSpecs resolves an -experiment value against the registry.
func selectSpecs(name string) ([]experimentSpec, error) {
	all := experiments()
	if name == "all" {
		return all, nil
	}
	for _, s := range all {
		if s.name == name {
			return []experimentSpec{s}, nil
		}
		for _, a := range s.aliases {
			if a == name {
				return []experimentSpec{s}, nil
			}
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (one of: %s)", name, strings.Join(experimentNames(), ", "))
}

// table is the shell every experiment runs in: measure, render the
// table and, under -csv, write it where a csv writer exists for it.
func table[T any](measure func(bench.Config) (T, error), render func(bench.Config, T), csv func(string, T) error) func(*runFlags) error {
	return func(rf *runFlags) error {
		rows, err := measure(rf.cfg)
		if err != nil {
			return err
		}
		render(rf.cfg, rows)
		if rf.csvDir != "" && csv != nil {
			return csv(rf.csvDir, rows)
		}
		return nil
	}
}

// runAblation is the ablation table and its two companions.
func runAblation(rf *runFlags) error {
	for _, run := range []func(*runFlags) error{
		table(bench.Ablations, bench.RenderAblations, bench.AblationsCSV),
		table(bench.ExactReference, bench.RenderExactReference, nil),
		table(bench.DiskModelSweep, bench.RenderDiskModelSweep, nil),
	} {
		if err := run(rf); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	experiment := flag.String("experiment", "all",
		"one of: "+strings.Join(experimentNames(), ", "))
	quick := flag.Bool("quick", false, "reduced scale")
	seed := flag.Uint64("seed", 0, "override corpus seed")
	workspace := flag.String("workspace", "", "build directory (default: temp)")
	csvDir := flag.String("csv", "", "also write results as CSV files into this directory")
	flag.Parse()

	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workspace = *workspace

	specs, err := selectSpecs(*experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snbench: %v\n", err)
		os.Exit(2)
	}
	rf := &runFlags{cfg: cfg, csvDir: *csvDir}
	for _, spec := range specs {
		name := spec.name
		if len(spec.aliases) > 0 {
			name = name + "/" + strings.Join(spec.aliases, "/")
		}
		start := time.Now()
		if err := spec.run(rf); err != nil {
			fmt.Fprintf(os.Stderr, "snbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
