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
// -quick runs a reduced scale for smoke testing. Each table is printed
// as text and that is all it does: how the system performs as a server,
// a builder or a fleet is measured by the suite in benchmark/ (go run
// ./benchmark), not here.
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

// experimentSpec is one registry entry. name is the canonical
// -experiment value; aliases also select it (fig9 and fig10 are one
// run).
type experimentSpec struct {
	name    string
	aliases []string
	desc    string
	run     func(bench.Config) error
}

// experiments is the registry -experiment selects from; "all" runs
// every entry in this order.
func experiments() []experimentSpec {
	return []experimentSpec{
		{name: "fig9", aliases: []string{"fig10"}, desc: "supernode/superedge scalability", run: table(bench.Scalability, bench.RenderScalability)},
		{name: "table1", desc: "bits/edge compression comparison", run: table(bench.Compression, bench.RenderCompression)},
		{name: "table2", desc: "in-memory access times", run: table(bench.Access, bench.RenderAccess)},
		{name: "fig11", desc: "per-query navigation time", run: table(bench.Queries, bench.RenderQueries)},
		{name: "fig12", desc: "navigation time vs buffer size", run: table(bench.BufferSweep, bench.RenderBufferSweep)},
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

// table is the shell every experiment runs in: measure, then render
// the table.
func table[T any](measure func(bench.Config) (T, error), render func(bench.Config, T)) func(bench.Config) error {
	return func(cfg bench.Config) error {
		rows, err := measure(cfg)
		if err != nil {
			return err
		}
		render(cfg, rows)
		return nil
	}
}

// runAblation is the ablation table and its two companions.
func runAblation(cfg bench.Config) error {
	for _, run := range []func(bench.Config) error{
		table(bench.Ablations, bench.RenderAblations),
		table(bench.ExactReference, bench.RenderExactReference),
		table(bench.DiskModelSweep, bench.RenderDiskModelSweep),
	} {
		if err := run(cfg); err != nil {
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
	for _, spec := range specs {
		name := spec.name
		if len(spec.aliases) > 0 {
			name = name + "/" + strings.Join(spec.aliases, "/")
		}
		start := time.Now()
		if err := spec.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "snbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
