package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"snode/internal/delta"
	"snode/internal/webgraph"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentileHonoursTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{1000, 0.99, 990}, // exactly ten samples beyond the p99
		{999, 0.95, 950},  // nine beyond the p99: step down
		{200, 0.95, 190},
		{199, 0.90, 180},
		{41, 0.75, 31},
		{39, 1, 39}, // too small for every rung: the maximum, labelled as such
		{2, 1, 2},
	} {
		v, q := tailPercentile(ascending(c.n), 0.99)
		if q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d: got value %v at q=%v, want %v at q=%v", c.n, v, q, c.wantV, c.wantQ)
		}
		if q < 1 && beyond(c.n, q) < tailBeyond {
			t.Errorf("n=%d: q=%v has only %d samples beyond it", c.n, q, beyond(c.n, q))
		}
	}
}

func TestWindowPercentileSlicesOnlyWithEnoughSamples(t *testing.T) {
	window := 10 * time.Second
	mk := func(n int) []sample {
		out := make([]sample, n)
		for i := range out {
			out[i] = sample{at: time.Duration(i) * window / time.Duration(n), lat: time.Duration(i%100+1) * time.Microsecond}
		}
		return out
	}
	if st := windowPercentile(mk(40000), window, 0.99); !st.sliced || st.q != 0.99 {
		t.Errorf("40000 samples: sliced=%v q=%v, want a sliced p99", st.sliced, st.q)
	}
	if st := windowPercentile(mk(24000), window, 0.99); st.sliced || st.q != 0.99 {
		t.Errorf("24000 samples: sliced=%v q=%v, want the whole window's p99 (600 per part is too few)", st.sliced, st.q)
	}
	if st := windowPercentile(mk(24000), window, 0.90); !st.sliced {
		t.Error("24000 samples: 600 per part is enough for a sliced p90")
	}
	// mk's latencies are at most 100 us, so every operation completes in
	// the part it started in.
	if got := windowRate(mk(24000), window); got != 2400 {
		t.Errorf("windowRate = %v, want 2400 per second", got)
	}
	// A stalled part and the part that made up for it are left out.
	uneven := mk(24000)
	for i := range uneven {
		if uneven[i].at < window/40 {
			uneven[i].at += window / 40
		}
	}
	if got := windowRate(uneven, window); got != 2400 {
		t.Errorf("windowRate with one empty and one double part = %v, want 2400 per second", got)
	}
	if st := wholeWindow(mk(40000), 0.99); st.sliced || st.q != 0.99 {
		t.Errorf("wholeWindow: sliced=%v q=%v", st.sliced, st.q)
	}
	if st := windowPercentile(mk(500), window, 0.99); st.q != 0.95 {
		t.Errorf("500 samples: q=%v, want 0.95", st.q)
	}
}

func TestMedianByClass(t *testing.T) {
	window := 10 * time.Second
	// Three kinds of request at 1, 2 and 9 ms, the slow kind one sample
	// ahead: the mixture's median is 2 ms or 9 ms by that one sample, the
	// mean of the kinds' medians is 4 ms either way.
	var mixed []sample
	for i := 0; i < 300; i++ {
		for class, ms := range map[int]int{1: 1, 2: 2, 3: 9} {
			mixed = append(mixed, sample{at: time.Duration(i) * window / 300, lat: time.Duration(ms) * time.Millisecond, class: class})
		}
	}
	if got := medianByClass(mixed, window); got != 4000 {
		t.Errorf("three kinds: %v us, want 4000", got)
	}
	mixed = append(mixed, sample{lat: 9 * time.Millisecond, class: 3})
	if got := medianByClass(mixed, window); got != 4000 {
		t.Errorf("three kinds, one more slow sample: %v us, want 4000", got)
	}
	// One kind: the sliced median of the window.
	one := make([]sample, 40000)
	for i := range one {
		one[i] = sample{at: time.Duration(i) * window / 40000, lat: time.Duration(i%100+1) * time.Microsecond}
	}
	if got, want := medianByClass(one, window), windowPercentile(one, window, 0.50).us; got != want {
		t.Errorf("one kind: %v us, want windowPercentile's %v", got, want)
	}
}

func TestFoldSchedule(t *testing.T) {
	for _, c := range []struct {
		window time.Duration
		want   []time.Duration
	}{
		{time.Second, nil},
		{10 * time.Second, []time.Duration{2 * time.Second}},
		{18 * time.Second, []time.Duration{2 * time.Second, 10 * time.Second}},
		{25 * time.Second, []time.Duration{2 * time.Second, 10 * time.Second, 18 * time.Second}},
	} {
		if got := foldStarts(c.window); !reflect.DeepEqual(got, c.want) {
			t.Errorf("window %v: fold-backs at %v, want %v", c.window, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(ascending(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("got %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("got %v, %v; want 1, 4", q1, q3)
	}
}

func TestStreamsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	draw := func(seed uint64, label string, skewed bool) []int32 {
		ps := newPageStream(seed, label, 100000, skewed)
		out := make([]int32, 1000)
		for i := range out {
			out[i] = ps.next()
		}
		return out
	}
	for _, skewed := range []bool{true, false} {
		a, b := draw(7, "window/client0", skewed), draw(7, "window/client0", skewed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("skewed=%v: equal seeds gave different page streams", skewed)
		}
		if reflect.DeepEqual(a, draw(8, "window/client0", skewed)) {
			t.Errorf("skewed=%v: different seeds gave the same page stream", skewed)
		}
		if reflect.DeepEqual(a, draw(7, "window/client1", skewed)) {
			t.Errorf("skewed=%v: two clients of one seed share a page stream", skewed)
		}
	}
	p1 := poissonSchedule(7, "window/batches", 2000, time.Second)
	if !reflect.DeepEqual(p1, poissonSchedule(7, "window/batches", 2000, time.Second)) {
		t.Error("equal seeds gave different Poisson schedules")
	}
	if reflect.DeepEqual(p1, poissonSchedule(8, "window/batches", 2000, time.Second)) {
		t.Error("different seeds gave the same Poisson schedule")
	}
	if n := len(p1); n < 1800 || n > 2200 {
		t.Errorf("Poisson 2000/s over 1 s scheduled %d arrivals", n)
	}
	for i := 1; i < len(p1); i++ {
		if p1[i] < p1[i-1] {
			t.Fatal("schedule is not ascending")
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: spanClient, Req: 1, ID: 1, StartNs: 0, DurNs: 100},
		{Name: spanRouter, Req: 1, ID: 2, Parent: 1, StartNs: 10, DurNs: 80},
		// Two legs that overlap from 40 to 50: counted once.
		{Name: spanServe, Req: 1, ID: 3, Parent: 2, StartNs: 20, DurNs: 30},
		{Name: spanServe, Req: 1, ID: 4, Parent: 2, StartNs: 40, DurNs: 40},
		// Summed store calls, placed at their handler's start.
		{Name: spanStore, Req: 1, ID: 5, Parent: 3, StartNs: 20, DurNs: 12, Calls: 6},
		// A child running past its parent is clipped to it.
		{Name: spanStore, Req: 1, ID: 6, Parent: 4, StartNs: 70, DurNs: 50, Calls: 1},
	}
	self := selfTimes(spans)
	want := map[uint32]int64{1: 20, 2: 20, 3: 18, 4: 30, 5: 12, 6: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	sum := summarize(spans)
	if sum.requests != 1 || sum.wallP50Us != 0.1 || sum.legsPerReq != 2 {
		t.Errorf("summary %+v", sum)
	}
	if got := sum.selfP50Us[spanServe]; got != 0.048 {
		t.Errorf("serve self %v us, want 0.048", got)
	}
	// Everything but the client span's own 20 of 100, with the clipped
	// store span counted whole: (20 + 18 + 30 + 12 + 50) / 100.
	if sum.coverage != 1.3 || sum.linked != 1 {
		t.Errorf("coverage %v, linked %v; want 1.3 and 1", sum.coverage, sum.linked)
	}
	// A request whose header was lost: its handler span belongs to no
	// request, and the client span stands alone.
	lost := append(spans,
		span{Name: spanClient, Req: 2, ID: 7, StartNs: 200, DurNs: 100},
		span{Name: spanServe, Req: 0, ID: 8, StartNs: 210, DurNs: 80})
	if sum := summarize(lost); sum.requests != 2 || sum.linked != 0.5 {
		t.Errorf("with a lost header: %d requests, linked %v; want 2 and 0.5", sum.requests, sum.linked)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	req, parent, ok := parseSpanHeader(formatSpanHeader(1<<40, 77))
	if !ok || req != 1<<40 || parent != 77 {
		t.Errorf("got %d %d %v", req, parent, ok)
	}
	for _, bad := range []string{"", "12", "a:1", "1:b", "1:99999999999"} {
		if _, _, ok := parseSpanHeader(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseOut(t *testing.T) {
	page, nbrs, ok := parseOut([]byte("{\"page\":12,\"neighbors\":[3,40,500]}\n"), nil)
	if !ok || page != 12 || !reflect.DeepEqual(nbrs, []webgraph.PageID{3, 40, 500}) {
		t.Errorf("got %d %v %v", page, nbrs, ok)
	}
	if _, nbrs, ok = parseOut([]byte(`{"page":0,"neighbors":[]}`), nil); !ok || len(nbrs) != 0 {
		t.Errorf("empty list: %v %v", nbrs, ok)
	}
	for _, bad := range []string{
		``, `{"page":1}`, `{"page":1,"neighbors":[1,]}`, `{"page":1,"neighbors":[1 2]}`,
		`{"page":1,"neighbors":[1]} trailing`, `{"page":-1,"neighbors":[]}`, `{"page":1,"neighbors":[99999999999]}`,
	} {
		if _, _, ok := parseOut([]byte(bad), nil); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestMutationLogLastOperationWins(t *testing.T) {
	log := mutationLog{}
	log.apply([]delta.Mutation{
		{Src: 1, Dst: 20, Op: delta.OpRemove},
		{Src: 1, Dst: 5, Op: delta.OpAdd},
		{Src: 1, Dst: 30, Op: delta.OpAdd}, // already in the base row
		{Src: 1, Dst: 40, Op: delta.OpRemove},
		{Src: 1, Dst: 40, Op: delta.OpAdd}, // removed, then added again
		{Src: 1, Dst: 7, Op: delta.OpAdd},
		{Src: 1, Dst: 7, Op: delta.OpRemove}, // added, then removed
	})
	got := log.expect([]webgraph.PageID{10, 20, 30, 40}, 1)
	if want := []webgraph.PageID{5, 10, 30, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := log.expect([]webgraph.PageID{1, 2}, 9); !reflect.DeepEqual(got, []webgraph.PageID{1, 2}) {
		t.Errorf("an untouched page changed: %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 102}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, cur []float64
		want     string
	}{
		{"within bound", lower, tight, []float64{105, 106, 107}, verdictSame},
		{"latency up 20%", lower, tight, []float64{120, 121, 122}, verdictWorse},
		{"latency down 20%", lower, tight, []float64{80, 81, 82}, verdictBetter},
		{"throughput down 20%", higher, tight, []float64{80, 81, 82}, verdictWorse},
		{"throughput up 20%", higher, tight, []float64{120, 121, 122}, verdictBetter},
		{"noisy and overlapping", lower, []float64{80, 100, 130}, []float64{90, 125, 140}, verdictUnresolved},
		{"noisy but every run worse", lower, []float64{80, 100, 130}, []float64{150, 170, 200}, verdictWorse},
		{"no tolerance, increase", metricDef{Name: "fail_ratio", Better: "lower"}, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, verdictWorse},
		{"no tolerance, equal", metricDef{Name: "fail_ratio", Better: "lower"}, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictSame},
		// modeled_io_ms_per_op is exactly 0 on nav_hot: a change that
		// makes nav_hot read the disk has no share of 0 to be judged by.
		{"zero baseline, now reading", metricDef{Name: "modeled_io_ms_per_op", Better: "lower", Bound: 0.10}, []float64{0, 0, 0}, []float64{5, 5.1, 5.2}, verdictWorse},
		{"zero baseline, still zero", metricDef{Name: "modeled_io_ms_per_op", Better: "lower", Bound: 0.10}, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictSame},
		{"zero baseline, higher is better", higher, []float64{0, 0, 0}, []float64{3, 4, 5}, verdictBetter},
	} {
		if got, _, _ := judge(c.d, newSide(c.old), newSide(c.cur)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCatalogueFilesAreCurrent holds BENCHMARK.json and the README's
// catalogue section to what -catalogue writes from catalogue.go, and
// the catalogue to the limits of the driver's contract.
func TestCatalogueFilesAreCurrent(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil || !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the catalogue generates (read error: %v); run `go run ./benchmark -catalogue` at the root", err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d bytes, the contract allows 64 KiB", len(want))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if regen, err := readmeWithCatalogue(string(readme)); err != nil || regen != string(readme) {
		t.Errorf("README.md's catalogue section is not what the catalogue generates (error: %v); run `go run ./benchmark -catalogue` at the root", err)
	}
	for _, w := range workloads {
		if !strings.Contains(string(readme), "**`"+w.Name+"`**") {
			t.Errorf("README has no paragraph on workload %s", w.Name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("%q is not a name the contract allows", n)
		}
		if seen[n] {
			t.Errorf("%s is catalogued twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	for _, w := range workloads {
		once(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the contract wants setup_s, in s, lower is better")
	}
	for _, set := range [][]metricDef{endToEnd, extras, perLayer} {
		for _, d := range set {
			once(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	p := defaultParams()
	file := &resultFile{Benchmark: "webgraph-stack", Created: time.Unix(1, 0).UTC(), Environment: readEnvironment()}
	for i, w := range workloads {
		for _, traced := range []bool{false, true} {
			q := p
			q.trace = traced
			r := newRunResult(w.Name, q)
			r.Attempted = 10
			defs, vals := endToEnd, r.EndToEnd
			if traced {
				defs, vals = perLayer, r.PerLayer
			}
			for j, d := range defs {
				vals[d.Name] = float64(i*1000+j) + 0.5
			}
			file.Runs = append(file.Runs, r)
			line := r.line()
			if len(line.Metrics) != len(defs) || !line.Correct {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line lacks %s in %s", w.Name, traced, d.Name, d.Unit)
				}
			}
		}
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := file.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.series(), back.series()) {
		t.Error("the series read back differ from the ones written")
	}
	raw, _ := os.ReadFile(path)
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if string(top["claim"]) != "null" {
		t.Errorf(`"claim" is %s, want null`, top["claim"])
	}
	for _, w := range workloads {
		if got := len(back.series()[w.Name]); got != len(endToEnd) {
			t.Errorf("%s: %d end-to-end series read back, want %d", w.Name, got, len(endToEnd))
		}
	}
}

// TestSmoke runs all five workloads end to end at 4k pages and 1 s
// windows: every operation must pass its oracle, every end-to-end
// metric must be a positive number, and the two navigation workloads
// must keep the contrast that makes them two workloads.
func TestSmoke(t *testing.T) {
	p := smokeParams()
	p.workDir, p.outDir = t.TempDir(), t.TempDir()
	for _, w := range workloads {
		res, err := runPass(w, p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if ratio, ok := res.Extras["fail_ratio"]; res.Failed != 0 || res.Attempted == 0 || !ok || ratio != 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.Name, res.Failed, res.Attempted, res.FirstError)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, d.Name, v)
			}
		}
	}
}

// TestSmokeTraced runs the traced pass of the workload with the longest
// span chain and checks that every request's time is accounted for.
func TestSmokeTraced(t *testing.T) {
	p := smokeParams()
	p.trace, p.workDir, p.outDir = true, t.TempDir(), t.TempDir()
	res, err := runMiningRouted(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.FirstError)
	}
	L := res.PerLayer
	if got := L["router.legs_per_query"]; got != miningShards {
		t.Errorf("router.legs_per_query = %v, want %d", got, miningShards)
	}
	if got := L["bench.spans_linked_ratio"]; got != 1 {
		t.Errorf("bench.spans_linked_ratio = %v, want every request's handler spans recorded under its client span", got)
	}
	// The two legs of a routed query run side by side, so their self
	// times can add up to more than the wall they share.
	if got := L["bench.span_coverage"]; !(got > 0.5 && got <= miningShards) {
		t.Errorf("bench.span_coverage = %v, want a routed query to spend most of its wall inside the handlers, and at most %d legs' worth", got, miningShards)
	}
	for _, name := range []string{"serve.self_us", "store.out_self_us", "router.self_ms", "serve.http_loopback_us", "store.out_calls_per_op"} {
		if !(L[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, L[name])
		}
	}
	if _, err := os.Stat(filepath.Join(p.outDir, "trace-mining_routed.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}
