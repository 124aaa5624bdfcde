// Command benchmark is the one benchmark of this repository: five named
// workloads over the whole stack, the end-to-end metrics a user of the
// system would see, and, from a second traced pass, the metrics of
// every layer. See README.md for the catalogue and BENCHMARK.json for
// the contract the driver runs it under.
//
//	go run ./benchmark -all [-trace 1] [-runs N]
//	go run ./benchmark compare old.json new.json
//	bash benchmark/run.sh -workload nav_cold -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir holds result and trace files and, in work/, the scratch files
// of a run; the root .gitignore names it.
var outDir = filepath.Join("benchmark", "out")

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload and print the driver's result line last")
		all        = flag.Bool("all", false, "run every workload, print every metric, write one result file")
		runs       = flag.Int("runs", 1, "with -all: how many times to run each workload (a comparison needs several)")
		seed       = flag.Uint64("seed", defaultSeed, "seed of every request stream, arrival schedule and mutation batch")
		seconds    = flag.Float64("seconds", contractRunSeconds, "measured window of each workload")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass (with -all: both passes)")
		buildPages = flag.Int("build-pages", defaultBuildPages, "pages of build_scale's corpus (1000000 is ISSUE 13's and ROADMAP's scale point)")
		smoke      = flag.Bool("smoke", false, "every workload at 4k pages and 1 s windows: checks the benchmark, measures nothing")
		resultPath = flag.String("result", "", "with -all: result file (default: benchmark/out/result-<time>.json)")
		catalogue  = flag.Bool("catalogue", false, "rewrite BENCHMARK.json and the catalogue section of benchmark/README.md from catalogue.go")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *catalogue {
		if err := writeCatalogue("."); err != nil {
			fatal(err)
		}
		return
	}
	p := defaultParams()
	if *smoke {
		p = smokeParams()
	} else {
		p.window = time.Duration(*seconds * float64(time.Second))
		p.buildPages = *buildPages
	}
	p.seed = *seed
	if p.window <= 0 || p.buildPages < 1000 {
		fatal(errors.New("need -seconds > 0 and -build-pages >= 1000"))
	}
	// One scratch directory per process: two runs never share files.
	work := filepath.Join(outDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fatal(err)
	}
	p.workDir, p.outDir = dir, outDir
	code := 0
	switch {
	case *workload != "":
		code = runOne(p, *workload, *traced == 1)
	case *all || *smoke:
		code = runAll(p, *runs, *traced == 1, *resultPath)
	default:
		flag.Usage()
		code = 2
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne is the driver's mode: one workload, one pass, the result line
// last on standard output.
func runOne(p params, name string, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	p.trace = traced
	res, err := runPass(w, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	res.print(os.Stderr)
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runPass runs one pass of one workload. The traced pass sets up once
// and reports per-layer metrics only: end-to-end metrics always come
// from a pass with tracing off.
func runPass(w workloadDef, p params) (*runResult, error) {
	if p.trace {
		p.setups = 1
	}
	res, err := w.run(p)
	switch {
	case err != nil:
		return nil, err
	case p.trace:
		res.EndToEnd, res.Extras = nil, nil
	default:
		res.PerLayer = nil
		if res.Attempted > 0 {
			res.Extras["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
		}
	}
	return res, nil
}

// runAll runs every workload n times (each time the untraced pass and,
// if asked, the traced one), prints every metric by name and writes
// one result file. Any failed operation makes the exit code 1.
func runAll(p params, n int, traced bool, resultPath string) int {
	file := &resultFile{Benchmark: "webgraph-stack", Created: time.Now().UTC(), Environment: readEnvironment()}
	failed := false
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for _, pass := range []bool{false, true} {
				if pass && !traced {
					continue
				}
				q := p
				q.trace = pass
				res, err := runPass(w, q)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				res.print(os.Stdout)
				file.Runs = append(file.Runs, res)
				failed = failed || res.Failed > 0
			}
		}
	}
	if resultPath == "" {
		resultPath = filepath.Join(p.outDir, "result-"+file.Created.Format("20060102T150405Z")+".json")
	}
	if err := os.MkdirAll(filepath.Dir(resultPath), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := file.write(resultPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("result file: %s\n\"claim\": null\n", resultPath)
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: some operations failed their check")
		return 1
	}
	return 0
}
