package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// runResult is one run of one workload: the untraced pass fills
// EndToEnd and Extras, the traced pass PerLayer.
type runResult struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	Extras     map[string]float64 `json:"extras,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Inputs     runInputs          `json:"inputs"`
}

// runInputs records what a run measured, so that two result files can
// prove they measured the same thing.
type runInputs struct {
	Seed          uint64   `json:"seed"`
	Pages         int      `json:"pages"`
	Edges         int64    `json:"edges"`
	CSRSha256     string   `json:"csr_sha256"`
	WindowSeconds float64  `json:"window_s"`
	WarmupSeconds float64  `json:"warmup_s"`
	Clients       int      `json:"clients"`
	Loop          string   `json:"loop"` // "closed", "open" or "sequential"
	Setups        int      `json:"setups"`
	Samples       int      `json:"latency_samples"`
	TailQuantile  float64  `json:"tail_quantile"` // the percentile lat_p99_us reports
	Sliced        bool     `json:"tail_is_median_of_slices"`
	LateP99Us     float64  `json:"generator_late_p99_us,omitempty"`
	Notes         []string `json:"notes,omitempty"`
}

func newRunResult(name string, p params) *runResult {
	return &runResult{
		Workload: name,
		Traced:   p.trace,
		EndToEnd: map[string]float64{},
		Extras:   map[string]float64{},
		PerLayer: map[string]float64{},
		Inputs: runInputs{
			Seed:          p.seed,
			WindowSeconds: p.window.Seconds(),
			WarmupSeconds: p.warmup.Seconds(),
			Clients:       p.clients,
			Setups:        p.setups,
		},
	}
}

func (r *runResult) count(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if r.FirstError == "" {
		r.FirstError = t.firstErr
	}
}

// check counts one oracle verdict as an operation.
func (r *runResult) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if r.FirstError == "" {
			r.FirstError = err.Error()
		}
	}
}

// metricValue is how the driver's result line carries one metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a --workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the run for the driver: every end-to-end metric of the
// catalogue for an untraced run, every per-layer metric for a traced
// one (those the workload does not measure read 0).
func (r *runResult) line() resultLine {
	out := resultLine{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, r.EndToEnd
	if r.Traced {
		defs, vals = perLayer, r.PerLayer
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes every metric of the run by name with its unit.
func (r *runResult) print(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d attempted, %d failed\n", r.Workload, pass, r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstError)
	}
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(w, "   %-40s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	show(endToEnd, r.EndToEnd)
	show(extras, r.Extras)
	show(perLayer, r.PerLayer)
	for _, n := range r.Inputs.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// resultFile is what -all and -runs write: every run made, with the
// inputs and environment that produced it.
type resultFile struct {
	Benchmark   string       `json:"benchmark"`
	Created     time.Time    `json:"created"`
	Environment environment  `json:"environment"`
	Runs        []*runResult `json:"runs"`
	// Claim is what the run says it shows against another commit. The
	// benchmark measures one commit and claims nothing.
	Claim any `json:"claim"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series gathers, per workload and gated metric, the values of a
// file's untraced runs in run order.
func (f *resultFile) series() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for _, vals := range []map[string]float64{r.EndToEnd, r.Extras} {
			for k, v := range vals {
				m[k] = append(m[k], v)
			}
		}
	}
	return out
}
