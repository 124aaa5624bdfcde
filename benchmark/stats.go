package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the percentile is decided by a handful of
// outliers and does not repeat between runs.
const tailBeyond = 10

// tailLadder is the descent a tail percentile takes when the sample is
// too small for the one asked for.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// percentile returns the q-quantile of an ascending sample by the
// nearest-rank rule (the smallest value with at least q of the sample
// at or below it). An empty sample reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// beyond counts the samples strictly past the q-quantile's rank.
func beyond(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return n - 1 - idx
}

// tailPercentile returns the highest percentile of the ladder, no
// higher than want, that has at least tailBeyond samples beyond it,
// and which one that was. A sample too small for every rung reports
// its maximum as q = 1.
func tailPercentile(sorted []float64, want float64) (v, q float64) {
	for _, q := range tailLadder {
		if q <= want && beyond(len(sorted), q) >= tailBeyond {
			return percentile(sorted, q), q
		}
	}
	return percentile(sorted, 1), 1
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// the rule the acceptance check of BENCHMARK.json uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// sample is one timed operation of a measured window.
type sample struct {
	at    time.Duration // when it started (a scheduled operation: was due), from the window's start
	lat   time.Duration
	class int // opStat.class of the operation
}

// latencySlices is how many equal parts a window is cut into. Each
// part's percentile is taken on its own and the median of the parts is
// reported (windowRate does the like for the completion rate): the
// figure of a typical part, under half a second long. On a shared
// two-core host, throughput wanders by a fifth from one second to the
// next, and every collection of a few hundred MB of heap holds a
// processor for a tenth of a second; with forty parts such an event
// moves one or two of them, not the window's figure.
const latencySlices = 40

// latencyStat is one percentile of a window, in microseconds.
type latencyStat struct {
	us     float64
	q      float64 // the percentile actually reported
	sliced bool    // median over latencySlices parts
}

// windowPercentile reports the want-percentile of the window's
// latencies. When every one of latencySlices parts holds enough samples
// for that percentile (tailBeyond past it), it is the median of the
// parts' percentiles. With too few samples per part the whole window is
// one sample and tailPercentile picks the highest percentile it
// supports: that is the p99 of nav_cold and mining_routed, and there it
// does show what happens once in a window.
func windowPercentile(samples []sample, window time.Duration, want float64) latencyStat {
	parts := make([][]float64, latencySlices)
	for _, s := range samples {
		i := int(int64(s.at) * latencySlices / int64(window))
		if i < 0 {
			i = 0
		}
		if i >= latencySlices {
			i = latencySlices - 1
		}
		parts[i] = append(parts[i], float64(s.lat)/float64(time.Microsecond))
	}
	sliced := true
	for _, p := range parts {
		if beyond(len(p), want) < tailBeyond {
			sliced = false
		}
	}
	if sliced {
		vs := make([]float64, 0, latencySlices)
		for _, p := range parts {
			sort.Float64s(p)
			vs = append(vs, percentile(p, want))
		}
		return latencyStat{us: median(vs), q: want, sliced: true}
	}
	return wholeWindow(samples, want)
}

// medianByClass is the median latency of a window whose requests are of
// several kinds (mining_routed's six queries, each a sixth of the
// requests and from 2 to 14 ms apart): the median of each kind over the
// whole window, then the mean of those. The median of the mixture would
// be whatever lies between the third and the fourth kind, a point that
// holds no request and moves by a fifth when one kind gains a few
// samples on another. A window of one kind reports windowPercentile.
func medianByClass(samples []sample, window time.Duration) float64 {
	byClass := map[int][]sample{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
	}
	if len(byClass) <= 1 {
		return windowPercentile(samples, window, 0.50).us
	}
	var sum float64
	for _, ss := range byClass {
		sum += wholeWindow(ss, 0.50).us
	}
	return sum / float64(len(byClass))
}

// wholeWindow reports the want-percentile of all the window's
// latencies taken as one sample.
func wholeWindow(samples []sample, want float64) latencyStat {
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		all = append(all, float64(s.lat)/float64(time.Microsecond))
	}
	sort.Float64s(all)
	if want <= 0.5 {
		return latencyStat{us: percentile(all, want), q: want}
	}
	v, q := tailPercentile(all, want)
	return latencyStat{us: v, q: q}
}

// windowRate reports completions per second as the mean of the middle
// half of the window's latencySlices parts, ordered by rate: the parts
// a collection or a neighbour on the host slowed, and the ones that
// made up for them, are left out, and twenty parts together count
// enough operations that one more or fewer does not show. An operation
// counts in the part it completed in; one completing after the window's
// end counts nowhere.
func windowRate(samples []sample, window time.Duration) float64 {
	counts := make([]float64, latencySlices)
	for _, s := range samples {
		i := int(int64(s.at+s.lat) * latencySlices / int64(window))
		if i >= 0 && i < latencySlices {
			counts[i]++
		}
	}
	sort.Float64s(counts)
	var sum float64
	mid := counts[latencySlices/4 : latencySlices-latencySlices/4]
	for _, c := range mid {
		sum += c
	}
	return sum / (float64(len(mid)) * window.Seconds() / latencySlices)
}

// derive mixes a label into the run seed, so the corpus and every
// request stream get their own reproducible sequence (splitmix64 over
// an FNV-1a hash of the label).
func derive(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	z := seed + h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newRand(seed uint64, label string) *rand.Rand {
	return rand.New(rand.NewSource(int64(derive(seed, label) >> 1)))
}

// zipfExponent skews page popularity: early page IDs are hot, the tail
// cold (the shape internal/bench's load experiment uses).
const zipfExponent = 1.2

// pageStream draws page IDs in [0, pages).
type pageStream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf // nil draws uniformly
	pages int
}

func newPageStream(seed uint64, label string, pages int, skewed bool) *pageStream {
	s := &pageStream{rng: newRand(seed, label), pages: pages}
	if skewed {
		s.zipf = rand.NewZipf(s.rng, zipfExponent, 1, uint64(pages-1))
	}
	return s
}

func (s *pageStream) next() int32 {
	if s.zipf != nil {
		return int32(s.zipf.Uint64())
	}
	return int32(s.rng.Intn(s.pages))
}

// poissonSchedule returns the due times, from 0, of a Poisson arrival
// process of the given rate over d.
func poissonSchedule(seed uint64, label string, rate float64, d time.Duration) []time.Duration {
	rng := newRand(seed, label)
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
