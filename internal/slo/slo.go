// Package slo turns the fleet's merged metrics into service-level
// judgements: per-class availability and p99-latency objectives over a
// rolling window, plus the error-budget burn rate SRE practice steers
// by. The inputs are plain cumulative metrics.Snapshots (one process's
// registry, or the router's cluster-wide merge): the scoreboard keeps
// a short history of timestamped snapshots and differences the window
// out of them, so the arithmetic works identically for a single
// replica, a shard, or the whole tier, and a restarted process (whose
// counters move backwards) degrades to an empty window instead of
// nonsense.
//
// Burn rate is normalized so 1.0 means "consuming error budget exactly
// as fast as the objective allows": an availability target of 99.9%
// allows 0.1% of requests to fail, so a window with 0.2% failures
// burns at 2.0. The latency objective is a p99 target, so its budget
// is the 1% of requests allowed over the target; a window where 3% of
// requests exceed the target burns at 3.0. Anything sustained above
// 1.0 is eating into the budget; the scoreboard exists so the load
// harness and the /slo endpoint can see that the moment shedding or
// tail inflation starts, not after the fact.
package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"snode/internal/metrics"
)

// Objective is one request class's service-level objective and the
// metric names that measure it.
type Objective struct {
	// Class labels the objective in reports ("nav", "mining").
	Class string `json:"class"`
	// TotalCounter names the class's offered-request counter.
	TotalCounter string `json:"total_counter"`
	// BadCounters name the counters whose deltas count against the
	// availability budget (sheds, 5xx errors).
	BadCounters []string `json:"bad_counters"`
	// LatencyHist names the class's end-to-end latency histogram.
	LatencyHist string `json:"latency_hist"`
	// Availability is the availability target in (0, 1), e.g. 0.999.
	Availability float64 `json:"availability"`
	// P99 is the latency target: 99% of the window's requests must
	// finish within it.
	P99 time.Duration `json:"p99_target_ns"`
}

// Config sizes a Scoreboard.
type Config struct {
	// Window is the rolling evaluation window (default 60s).
	Window time.Duration
	// Objectives are the per-class objectives to evaluate.
	Objectives []Objective
}

// maxSamples bounds the snapshot history. With samples every few
// seconds that comfortably covers the window.
const maxSamples = 128

// Scoreboard accumulates timestamped cumulative snapshots and
// evaluates the objectives over the most recent window. Safe for
// concurrent use.
type Scoreboard struct {
	window     time.Duration
	objectives []Objective

	mu      sync.Mutex
	samples []sample
}

type sample struct {
	at   time.Time
	snap metrics.Snapshot
}

// New builds a scoreboard. Zero config fields take the documented
// defaults.
func New(cfg Config) *Scoreboard {
	if cfg.Window <= 0 {
		cfg.Window = 60 * time.Second
	}
	return &Scoreboard{
		window:     cfg.Window,
		objectives: append([]Objective(nil), cfg.Objectives...),
	}
}

// Window returns the rolling evaluation window.
func (b *Scoreboard) Window() time.Duration { return b.window }

// Sample appends one cumulative snapshot taken at the given time.
// Out-of-order samples (at earlier than the newest) are dropped.
func (b *Scoreboard) Sample(at time.Time, snap metrics.Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.samples); n > 0 && at.Before(b.samples[n-1].at) {
		return
	}
	b.samples = append(b.samples, sample{at: at, snap: snap})
	if len(b.samples) > maxSamples {
		b.samples = b.samples[len(b.samples)-maxSamples:]
	}
}

// ClassReport is one objective's windowed evaluation.
type ClassReport struct {
	Class string `json:"class"`
	// Requests and Bad are the window's offered and budget-burning
	// request counts.
	Requests int64 `json:"requests"`
	Bad      int64 `json:"bad"`
	// Availability is the window's good/offered ratio (1 when idle) vs
	// the target; AvailabilityMet reports target attainment.
	Availability       float64 `json:"availability"`
	AvailabilityTarget float64 `json:"availability_target"`
	AvailabilityMet    bool    `json:"availability_met"`
	// AvailabilityBurn is the error-budget burn rate: the window's
	// error rate over the allowed error rate (1.0 = consuming budget
	// exactly at the sustainable rate).
	AvailabilityBurn float64 `json:"availability_burn"`
	// P99MS is the window's observed p99 vs the target; SlowShare is
	// the fraction of the window's requests over the target, and
	// LatencyBurn normalizes it by the allowed 1%.
	P99MS       float64 `json:"p99_ms"`
	P99TargetMS float64 `json:"p99_target_ms"`
	P99Met      bool    `json:"p99_met"`
	SlowShare   float64 `json:"slow_share"`
	LatencyBurn float64 `json:"latency_burn"`
	// BudgetRemaining is the unburned fraction of the window's
	// availability error budget (negative once overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Report is the scoreboard's full windowed evaluation.
type Report struct {
	At            time.Time     `json:"at"`
	WindowSeconds float64       `json:"window_seconds"`
	Samples       int           `json:"samples"`
	Classes       []ClassReport `json:"classes"`
}

// Class returns the named class's report, or a zero report.
func (r Report) Class(name string) ClassReport {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassReport{}
}

// Report evaluates the objectives over the window ending now. The
// baseline is the newest sample at least Window old (the oldest
// retained one while history is still short); with fewer than two
// samples every class reports an idle window.
func (b *Scoreboard) Report(now time.Time) Report {
	b.mu.Lock()
	samples := append([]sample(nil), b.samples...)
	b.mu.Unlock()

	rep := Report{At: now, WindowSeconds: b.window.Seconds(), Samples: len(samples)}
	var base, latest sample
	if n := len(samples); n > 0 {
		latest = samples[n-1]
		base = samples[0]
		cutoff := now.Add(-b.window)
		for _, s := range samples {
			if s.at.After(cutoff) {
				break
			}
			base = s
		}
	}
	for _, o := range b.objectives {
		rep.Classes = append(rep.Classes, evalObjective(o, base.snap, latest.snap))
	}
	return rep
}

// counterDelta is the clamped windowed increase of one counter.
func counterDelta(name string, base, latest metrics.Snapshot) int64 {
	d := latest.Counters[name] - base.Counters[name]
	if d < 0 {
		d = 0
	}
	return d
}

func evalObjective(o Objective, base, latest metrics.Snapshot) ClassReport {
	c := ClassReport{
		Class:              o.Class,
		Availability:       1,
		AvailabilityTarget: o.Availability,
		AvailabilityMet:    true,
		P99Met:             true,
		P99TargetMS:        float64(o.P99) / float64(time.Millisecond),
		BudgetRemaining:    1,
	}
	c.Requests = counterDelta(o.TotalCounter, base, latest)
	for _, bad := range o.BadCounters {
		c.Bad += counterDelta(bad, base, latest)
	}
	if c.Bad > c.Requests {
		c.Bad = c.Requests
	}
	allowedErr := 1 - o.Availability
	if c.Requests > 0 {
		errRate := float64(c.Bad) / float64(c.Requests)
		c.Availability = 1 - errRate
		c.AvailabilityMet = c.Availability >= o.Availability
		if allowedErr > 0 {
			c.AvailabilityBurn = errRate / allowedErr
			c.BudgetRemaining = 1 - c.AvailabilityBurn
		} else if c.Bad > 0 {
			// A 100% target has no budget: any failure is infinite burn,
			// reported as a large sentinel to stay JSON-representable.
			c.AvailabilityBurn = 1e9
			c.BudgetRemaining = -1e9
		}
	}

	if h, ok := latest.Histograms[o.LatencyHist]; ok && o.P99 > 0 {
		win := h
		if bh, ok := base.Histograms[o.LatencyHist]; ok {
			if d, err := h.Sub(bh); err == nil {
				win = d
			}
		}
		if win.Count > 0 {
			c.P99MS = float64(win.P99()) / float64(time.Millisecond)
			// Count observations over the target by bucket: a bucket is
			// "within target" when its upper bound fits. The target is
			// normally aligned to a bucket bound; when it is not, this
			// charges the whole straddling bucket against the budget —
			// the conservative reading.
			var under int64
			for i, bound := range win.Bounds {
				if bound <= int64(o.P99) {
					under += win.Counts[i]
				}
			}
			over := win.Count - under
			if over < 0 {
				over = 0
			}
			c.SlowShare = float64(over) / float64(win.Count)
			c.LatencyBurn = c.SlowShare / 0.01
			c.P99Met = c.SlowShare <= 0.01
		}
	}
	return c
}

// Handler serves the scoreboard at /slo: it takes a fresh sample via
// sampleFn (when non-nil) and answers with the windowed Report as
// JSON, so polling the endpoint is what advances the window.
func Handler(b *Scoreboard, sampleFn func() metrics.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		now := time.Now()
		if sampleFn != nil {
			b.Sample(now, sampleFn())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(b.Report(now))
	})
}

// Summary renders a one-line-per-class digest for CLI output.
func (r Report) Summary() string {
	if len(r.Classes) == 0 {
		return "slo: no objectives configured"
	}
	out := ""
	for i, c := range r.Classes {
		if i > 0 {
			out += "\n"
		}
		status := "OK"
		if !c.AvailabilityMet || !c.P99Met {
			status = "BURNING"
		}
		out += fmt.Sprintf("slo %-6s %s avail %.4f (target %.4f, burn %.2fx) p99 %.1fms (target %.0fms, slow %.2f%%, burn %.2fx) over %d reqs",
			c.Class, status, c.Availability, c.AvailabilityTarget, c.AvailabilityBurn,
			c.P99MS, c.P99TargetMS, 100*c.SlowShare, c.LatencyBurn, c.Requests)
	}
	return out
}
