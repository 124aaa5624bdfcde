package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snode/internal/metrics"
)

func navObjective() Objective {
	return Objective{
		Class:        "nav",
		TotalCounter: "router_nav_requests",
		BadCounters:  []string{"router_nav_shed", "router_nav_errors"},
		LatencyHist:  "router_latency_nav",
		Availability: 0.999,
		P99:          100 * time.Millisecond,
	}
}

// drive applies traffic to a registry: ok requests at okLat, bad
// requests counted as sheds (still observed in the histogram, at the
// deadline they burned).
func drive(reg *metrics.Registry, ok, bad int, okLat, badLat time.Duration) {
	total := reg.Counter("router_nav_requests")
	shed := reg.Counter("router_nav_shed")
	h := reg.Histogram("router_latency_nav", nil)
	for i := 0; i < ok; i++ {
		total.Inc()
		h.Observe(int64(okLat))
	}
	for i := 0; i < bad; i++ {
		total.Inc()
		shed.Inc()
		h.Observe(int64(badLat))
	}
}

func TestScoreboardIdleWindow(t *testing.T) {
	b := New(Config{Window: time.Minute, Objectives: []Objective{navObjective()}})
	rep := b.Report(time.Now())
	c := rep.Class("nav")
	if c.Requests != 0 || c.Availability != 1 || !c.AvailabilityMet || !c.P99Met || c.AvailabilityBurn != 0 {
		t.Fatalf("idle report = %+v", c)
	}
}

func TestScoreboardBurnReactsToSheds(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Config{Window: time.Minute, Objectives: []Objective{navObjective()}})
	t0 := time.Now()

	// Healthy window: 1000 requests, 0 bad, all fast.
	drive(reg, 1000, 0, 5*time.Millisecond, 0)
	b.Sample(t0, reg.Snapshot())
	drive(reg, 1000, 0, 5*time.Millisecond, 0)
	b.Sample(t0.Add(10*time.Second), reg.Snapshot())
	rep := b.Report(t0.Add(10 * time.Second))
	c := rep.Class("nav")
	if !c.AvailabilityMet || !c.P99Met || c.AvailabilityBurn != 0 {
		t.Fatalf("healthy window burning: %+v", c)
	}
	if c.Requests != 1000 {
		t.Fatalf("window requests = %d, want the delta 1000", c.Requests)
	}

	// Overload window: 5% shed at the deadline, tail blown.
	drive(reg, 950, 50, 5*time.Millisecond, 300*time.Millisecond)
	b.Sample(t0.Add(20*time.Second), reg.Snapshot())
	rep = b.Report(t0.Add(20 * time.Second))
	c = rep.Class("nav")
	if c.Requests != 2000 || c.Bad != 50 {
		t.Fatalf("overload window counts = %d/%d, want 2000/50", c.Requests, c.Bad)
	}
	// 50/2000 = 2.5% error rate against a 0.1% budget: 25x burn.
	if c.AvailabilityBurn < 24 || c.AvailabilityBurn > 26 {
		t.Fatalf("availability burn = %.2f, want ~25", c.AvailabilityBurn)
	}
	if c.AvailabilityMet {
		t.Fatal("5%% sheds reported as meeting 99.9%% availability")
	}
	if c.LatencyBurn <= 1 || c.P99Met {
		t.Fatalf("blown tail not burning: %+v", c)
	}
	if c.BudgetRemaining >= 0 {
		t.Fatalf("budget remaining = %.2f, want overspent", c.BudgetRemaining)
	}
}

// The window must slide: old samples become the baseline, so an
// incident more than a window ago stops burning.
func TestScoreboardWindowSlides(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Config{Window: 30 * time.Second, Objectives: []Objective{navObjective()}})
	t0 := time.Now()

	drive(reg, 900, 100, 5*time.Millisecond, 200*time.Millisecond) // incident
	b.Sample(t0, reg.Snapshot())
	drive(reg, 1000, 0, 5*time.Millisecond, 0) // recovered
	b.Sample(t0.Add(40*time.Second), reg.Snapshot())
	drive(reg, 1000, 0, 5*time.Millisecond, 0)
	b.Sample(t0.Add(60*time.Second), reg.Snapshot())

	c := b.Report(t0.Add(60 * time.Second)).Class("nav")
	if c.Bad != 0 || c.AvailabilityBurn != 0 {
		t.Fatalf("incident outside the window still burning: %+v", c)
	}
	// The baseline is the newest sample at or before the cutoff — here
	// the t0 sample, whose cumulative counts already include the
	// incident — so the delta spans both recovered batches and none of
	// the incident.
	if c.Requests != 2000 {
		t.Fatalf("window requests = %d, want 2000", c.Requests)
	}
}

func TestScoreboardHistoryBounded(t *testing.T) {
	b := New(Config{Window: time.Minute, Objectives: []Objective{navObjective()}})
	t0 := time.Now()
	for i := 0; i < maxSamples+1; i++ {
		b.Sample(t0.Add(time.Duration(i)*time.Second), metrics.Snapshot{})
	}
	if rep := b.Report(t0.Add(200 * time.Second)); rep.Samples != maxSamples {
		t.Fatalf("history = %d samples, want bounded at %d", rep.Samples, maxSamples)
	}
	// Out-of-order samples are dropped, not spliced.
	b.Sample(t0, metrics.Snapshot{})
	if rep := b.Report(t0.Add(200 * time.Second)); rep.Samples != maxSamples {
		t.Fatalf("out-of-order sample accepted")
	}
}

func TestHandlerSamplesAndReports(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Config{Window: time.Minute, Objectives: []Objective{navObjective()}})
	h := Handler(b, func() metrics.Snapshot { return reg.Snapshot() })

	drive(reg, 100, 0, time.Millisecond, 0)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 || len(rep.Classes) != 1 {
		t.Fatalf("first poll report = %+v", rep)
	}

	drive(reg, 50, 50, time.Millisecond, 200*time.Millisecond)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	c := rep.Class("nav")
	if c.Bad != 50 || c.AvailabilityBurn <= 1 {
		t.Fatalf("second poll did not see the burn: %+v", c)
	}
	if !strings.Contains(rep.Summary(), "BURNING") {
		t.Fatalf("summary = %q, want BURNING", rep.Summary())
	}
}
