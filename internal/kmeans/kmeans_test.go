package kmeans

import (
	"errors"
	"math"
	"testing"

	"snode/internal/randutil"
)

// twoBlobs builds points from two well-separated binary clusters:
// cluster A uses dimensions 0..9, cluster B uses 100..109.
func twoBlobs(nA, nB int, seed uint64) ([]Point, []int) {
	rng := randutil.NewRNG(seed)
	var pts []Point
	var truth []int
	for i := 0; i < nA; i++ {
		var p Point
		for d := int32(0); d < 10; d++ {
			if rng.Bool(0.7) {
				p = append(p, d)
			}
		}
		pts = append(pts, p)
		truth = append(truth, 0)
	}
	for i := 0; i < nB; i++ {
		var p Point
		for d := int32(100); d < 110; d++ {
			if rng.Bool(0.7) {
				p = append(p, d)
			}
		}
		pts = append(pts, p)
		truth = append(truth, 1)
	}
	return pts, truth
}

func TestSeparatesTwoBlobs(t *testing.T) {
	pts, truth := twoBlobs(40, 40, 1)
	res, err := Run(pts, Config{K: 2, MaxIterations: 100, Seed: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d", res.NumClusters)
	}
	// All of blob A must share a label, and differ from blob B.
	missed := 0
	a0 := res.Assign[0]
	for i, tr := range truth {
		want := a0
		if tr == 1 {
			want = 1 - a0
		}
		if res.Assign[i] != want {
			missed++
		}
	}
	if missed > 4 {
		t.Fatalf("%d/80 points misclustered", missed)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	pts, _ := twoBlobs(30, 30, 3)
	r1, err1 := Run(pts, Config{K: 3, MaxIterations: 50, Seed: 7})
	r2, err2 := Run(pts, Config{K: 3, MaxIterations: 50, Seed: 7})
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("errors differ: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("assignment diverges at %d", i)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); err != ErrDegenerate {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := Run([]Point{{1}, {2}}, Config{K: 1}); err != ErrDegenerate {
		t.Fatalf("k=1: %v", err)
	}
	// All-identical points collapse to one cluster.
	same := []Point{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	if _, err := Run(same, Config{K: 2, MaxIterations: 50, Seed: 1}); err != ErrDegenerate {
		t.Fatalf("identical points: %v", err)
	}
}

func TestEmptyPointsAllowed(t *testing.T) {
	pts := []Point{{}, {}, {1, 2, 3}, {1, 2, 3}, {1, 2}}
	res, err := Run(pts, Config{K: 2, MaxIterations: 100, Seed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Assign[0] != res.Assign[1] {
		t.Fatal("two empty points split across clusters")
	}
	if res.Assign[0] == res.Assign[2] {
		t.Fatal("empty and dense points merged")
	}
}

func TestAbortOnIterationBound(t *testing.T) {
	// With MaxIterations=1 on non-trivial data, the first pass changes
	// assignments and cannot also verify convergence → ErrAborted.
	pts, _ := twoBlobs(50, 50, 9)
	_, err := Run(pts, Config{K: 2, MaxIterations: 1, Seed: 11})
	if err != ErrAborted {
		t.Fatalf("got %v, want ErrAborted", err)
	}
}

func TestKLargerThanN(t *testing.T) {
	pts := []Point{{1}, {2}, {3}}
	res, err := Run(pts, Config{K: 10, MaxIterations: 50, Seed: 13})
	if err != nil && err != ErrAborted {
		t.Fatalf("Run: %v", err)
	}
	if res.NumClusters > 3 {
		t.Fatalf("more clusters than points: %d", res.NumClusters)
	}
}

func TestAssignmentsDense(t *testing.T) {
	pts, _ := twoBlobs(20, 20, 17)
	res, err := Run(pts, Config{K: 4, MaxIterations: 100, Seed: 19})
	if err != nil && err != ErrAborted {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, a := range res.Assign {
		if a < 0 || int(a) >= res.NumClusters {
			t.Fatalf("label %d out of range [0,%d)", a, res.NumClusters)
		}
		seen[a] = true
	}
	if len(seen) != res.NumClusters {
		t.Fatalf("labels not dense: %d seen, %d claimed", len(seen), res.NumClusters)
	}
}

func TestSortPoint(t *testing.T) {
	p := SortPoint(Point{5, 1, 3, 1, 5})
	want := Point{1, 3, 5}
	if len(p) != len(want) {
		t.Fatalf("len %d", len(p))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("got %v", p)
		}
	}
}

// referenceRun is the Lloyd loop Run replaced, one input point at a
// time, kept as the reference TestRunMatchesReference holds Run to.
func referenceRun(points []Point, cfg Config) (*Result, error) {
	n := len(points)
	if cfg.K < 2 || n < 2 {
		return nil, ErrDegenerate
	}
	k := cfg.K
	if k > n {
		k = n
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	rng := randutil.NewRNG(cfg.Seed)

	nd := dims(points)

	// Initialization: k distinct points chosen by a k-means++-style
	// spread — pick the first at random, then each next point far from
	// chosen centroids (sampled among a small candidate set for speed).
	cents := make([]*centroid, 0, k)
	addCentroid := func(p Point) {
		c := &centroid{weights: make([]float64, nd), count: 1}
		for _, d := range p {
			c.weights[d] = 1
		}
		c.norm2 = float64(len(p))
		cents = append(cents, c)
	}
	addCentroid(points[rng.Intn(n)])
	for len(cents) < k {
		best, bestDist := -1, -1.0
		for try := 0; try < 8; try++ {
			cand := rng.Intn(n)
			d := sqDistance(points[cand], cents[0])
			for _, c := range cents[1:] {
				if dd := sqDistance(points[cand], c); dd < d {
					d = dd
				}
			}
			if d > bestDist {
				best, bestDist = cand, d
			}
		}
		addCentroid(points[best])
	}

	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}

	converged := false
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		changed := 0
		for i, p := range points {
			best, bestD := 0, sqDistance(p, cents[0])
			for ci := 1; ci < len(cents); ci++ {
				if d := sqDistance(p, cents[ci]); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != int32(best) {
				assign[i] = int32(best)
				changed++
			}
		}
		if changed == 0 {
			converged = true
			break
		}
		// Recompute centroids. All accumulation is in dense index order,
		// keeping the arithmetic bit-reproducible run to run.
		for _, c := range cents {
			for d := range c.weights {
				c.weights[d] = 0
			}
			c.norm2 = 0
			c.count = 0
		}
		for i, p := range points {
			c := cents[assign[i]]
			c.count++
			for _, d := range p {
				c.weights[d]++
			}
		}
		for _, c := range cents {
			if c.count == 0 {
				continue
			}
			inv := 1.0 / float64(c.count)
			for d, w := range c.weights {
				if w == 0 {
					continue
				}
				w *= inv
				c.weights[d] = w
				c.norm2 += w * w
			}
		}
	}

	// Final scatter statistics.
	var withinSS float64
	for i, p := range points {
		withinSS += sqDistance(p, cents[assign[i]])
	}
	global := &centroid{weights: make([]float64, nd), count: n}
	for _, p := range points {
		for _, d := range p {
			global.weights[d]++
		}
	}
	inv := 1.0 / float64(n)
	for d, w := range global.weights {
		if w == 0 {
			continue
		}
		w *= inv
		global.weights[d] = w
		global.norm2 += w * w
	}
	var totalSS float64
	for _, p := range points {
		totalSS += sqDistance(p, global)
	}

	// Renumber non-empty clusters densely.
	remap := map[int32]int32{}
	for _, a := range assign {
		if _, ok := remap[a]; !ok {
			remap[a] = int32(len(remap))
		}
	}
	if len(remap) < 2 {
		return nil, ErrDegenerate
	}
	out := make([]int32, n)
	for i, a := range assign {
		out[i] = remap[a]
	}
	res := &Result{Assign: out, NumClusters: len(remap), WithinSS: withinSS, TotalSS: totalSS}
	if !converged {
		return res, ErrAborted
	}
	return res, nil
}

// duplicatedPoints draws n sparse points over nd dimensions: with
// probability fresh a new random point, otherwise a copy of one of a
// few shapes, so most points repeat another exactly, as pages linking
// to the same supernodes do. About one point in ten is empty.
func duplicatedPoints(rng *randutil.RNG, n, nd, shapes int, fresh float64) []Point {
	random := func(p float64) Point {
		var pt Point
		for d := 0; d < nd; d++ {
			if rng.Bool(p) {
				pt = append(pt, int32(d))
			}
		}
		return pt
	}
	pool := make([]Point, shapes)
	for i := range pool {
		pool[i] = random(0.3)
	}
	pts := make([]Point, n)
	for i := range pts {
		switch {
		case rng.Bool(0.1):
			// An empty point.
		case rng.Bool(fresh):
			pts[i] = random(0.2)
		default:
			pts[i] = append(Point(nil), pool[rng.Intn(len(pool))]...)
		}
	}
	return pts
}

// TestRunMatchesReference holds Run, which iterates over distinct
// points, to the one-point-at-a-time loop it replaced: the same
// assignment, cluster count and scatter sums to the bit, and the same
// error, over inputs with heavy duplication, empty points and k from 2
// to 12.
func TestRunMatchesReference(t *testing.T) {
	rng := randutil.NewRNG(38)
	var aborted, degenerate, ok int
	for trial := 0; trial < 600; trial++ {
		shapes, fresh := 1+rng.Intn(12), 0.3
		if trial%8 == 0 {
			shapes, fresh = 1, 0 // empty points and one shape: often degenerate
		}
		pts := duplicatedPoints(rng, 2+rng.Intn(300), 1+rng.Intn(24), shapes, fresh)
		cfg := Config{K: 2 + rng.Intn(11), MaxIterations: 1 + rng.Intn(30), Seed: rng.Uint64()}
		got, gerr := Run(pts, cfg)
		want, werr := referenceRun(pts, cfg)
		if !errors.Is(gerr, werr) || !errors.Is(werr, gerr) {
			t.Fatalf("trial %d %+v: error %v, reference %v", trial, cfg, gerr, werr)
		}
		switch werr {
		case ErrAborted:
			aborted++
		case ErrDegenerate:
			degenerate++
			continue
		default:
			ok++
		}
		if got.NumClusters != want.NumClusters ||
			math.Float64bits(got.WithinSS) != math.Float64bits(want.WithinSS) ||
			math.Float64bits(got.TotalSS) != math.Float64bits(want.TotalSS) {
			t.Fatalf("trial %d %+v: %d clusters, SS %v/%v; reference %d clusters, SS %v/%v", trial, cfg,
				got.NumClusters, got.WithinSS, got.TotalSS, want.NumClusters, want.WithinSS, want.TotalSS)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("trial %d %+v: point %d in cluster %d, reference %d", trial, cfg, i, got.Assign[i], want.Assign[i])
			}
		}
	}
	// Every outcome must be exercised, or the comparison proves less
	// than it claims.
	t.Logf("outcomes: %d converged, %d aborted, %d degenerate", ok, aborted, degenerate)
	if aborted == 0 || degenerate == 0 || ok == 0 {
		t.Fatalf("outcomes: %d converged, %d aborted, %d degenerate", ok, aborted, degenerate)
	}
}
