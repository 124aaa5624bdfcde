// Package kmeans implements k-means clustering over sparse binary
// vectors, as used by the clustered-split technique (paper §3.2): each
// page in a partition element is represented by the bit vector of
// supernodes it points to, and k-means groups pages whose vectors — and
// hence adjacency lists — are similar.
//
// Vectors are sparse: a point is the sorted list of its set dimensions.
// Centroids are dense within the (small) set of dimensions that occur.
// Iterations run over the distinct points, each weighted by its
// multiplicity: pages with one adjacency signature are one point to
// the loop, and the result is the one a loop over every page computes.
package kmeans

import (
	"errors"
	"slices"

	"snode/internal/randutil"
)

// Point is a sparse binary vector: the sorted list of set dimensions.
type Point []int32

// Config bounds the clustering run, mirroring the paper's use of an
// execution bound with abort ("we place an upper bound on the running
// time of the algorithm and abort the execution if this bound is
// exceeded").
type Config struct {
	K             int // number of clusters
	MaxIterations int // abort bound (stands in for the paper's time bound)
	Seed          uint64
}

// ErrAborted is returned when the iteration bound is hit before
// convergence — the signal the partitioner uses to retry with k+2.
var ErrAborted = errors.New("kmeans: iteration bound exceeded before convergence")

// ErrDegenerate is returned when fewer than two non-empty clusters can
// be formed (all points identical, or k < 2).
var ErrDegenerate = errors.New("kmeans: degenerate clustering")

// Result holds the cluster assignment per input point and the number of
// non-empty clusters, renumbered densely in [0, NumClusters). WithinSS
// and TotalSS report the within-cluster and total sum of squared
// distances; their ratio measures how much structure the clustering
// explains (1.0 = none), which the partitioner uses to reject splits
// that merely chunk a single homogeneous cloud.
type Result struct {
	Assign      []int32
	NumClusters int
	WithinSS    float64
	TotalSS     float64
}

// centroid is dense over the (densified) dimension range that occurs
// in the input. Dense storage matters twice: the inner loop indexes a
// slice instead of hashing map keys, and — critically for the parallel
// partition refiner — every float accumulation below runs in fixed
// index order, so a clustering is a pure function of (points, Config).
// The previous map-backed centroids summed norms in map-iteration
// order, which Go randomizes per run; float addition is not
// associative, so two runs could disagree in the last ulp and, on a
// knife-edge comparison, flip an assignment.
type centroid struct {
	weights []float64 // mean of member vectors
	norm2   float64   // squared L2 norm of the centroid
	count   int
}

// sqDistance computes ||p - c||^2 = |p| + ||c||^2 - 2*dot(p, c), using
// |p| because p is binary.
func sqDistance(p Point, c *centroid) float64 {
	dot := 0.0
	for _, d := range p {
		dot += c.weights[d]
	}
	return float64(len(p)) + c.norm2 - 2*dot
}

// dims returns the dense dimension count: one past the largest set
// dimension across the (sorted) points.
func dims(points []Point) int32 {
	var max int32 = -1
	for _, p := range points {
		if len(p) > 0 && p[len(p)-1] > max {
			max = p[len(p)-1]
		}
	}
	return max + 1
}

// Run clusters the points. Points must be normalized with SortPoint
// first (the dense centroids size themselves from the largest sorted
// dimension). Empty points are valid (pages that point to no other
// supernode) and gravitate to a shared cluster. Run is deterministic:
// the same points and Config produce the same Result on every run and
// under any GOMAXPROCS.
//
// The Lloyd iterations run over the distinct points, each weighted by
// how many input points equal it. Identical points are at the same
// distance from every centroid, so they always land in the same
// cluster; a centroid's sums are counts held in float64, so adding a
// multiplicity at once is exact; and the scatter sums still add one
// distance per input point, in input order. The Result is therefore
// bit for bit the one a loop over every input point computes.
func Run(points []Point, cfg Config) (*Result, error) {
	n := len(points)
	if cfg.K < 2 || n < 2 {
		return nil, ErrDegenerate
	}
	k := min(cfg.K, n)
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	rng := randutil.NewRNG(cfg.Seed)

	nd := int(dims(points))
	of, reps, mult := distinct(points)

	// Initialization: k distinct points chosen by a k-means++-style
	// spread — pick the first at random, then each next point far from
	// chosen centroids (sampled among a small candidate set for speed).
	// The draws are over input points, as many as there are.
	weights := make([]float64, k*nd)
	cents := make([]centroid, 0, k)
	addCentroid := func(p Point) {
		c := centroid{weights: weights[len(cents)*nd : (len(cents)+1)*nd], count: 1}
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
			d := sqDistance(points[cand], &cents[0])
			for ci := 1; ci < len(cents); ci++ {
				if dd := sqDistance(points[cand], &cents[ci]); dd < d {
					d = dd
				}
			}
			if d > bestDist {
				best, bestDist = cand, d
			}
		}
		addCentroid(points[best])
	}

	assign := make([]int32, len(reps))
	for i := range assign {
		assign[i] = -1
	}
	// dist holds every distinct point's distance to every centroid. A
	// centroid whose members did not change is recomputed to the same
	// bits, so only the distances to centroids that gained or lost a
	// point are computed again.
	dist := make([]float64, len(reps)*k)
	stale, moved := make([]bool, k), make([]bool, k)
	for ci := range stale {
		stale[ci] = true
	}

	converged := false
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		changed := false
		for i, p := range reps {
			row := dist[i*k : (i+1)*k]
			for ci := range row {
				if stale[ci] {
					row[ci] = sqDistance(p, &cents[ci])
				}
			}
			best, bestD := 0, row[0]
			for ci := 1; ci < k; ci++ {
				if row[ci] < bestD {
					best, bestD = ci, row[ci]
				}
			}
			if a := assign[i]; a != int32(best) {
				if a >= 0 {
					moved[a] = true
				}
				moved[best] = true
				assign[i] = int32(best)
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
		// The first recomputation replaces every seed, members or none.
		if iter > 0 {
			stale, moved = moved, stale
		}
		clear(moved)
		// Recompute centroids. All accumulation is in dense index order,
		// keeping the arithmetic bit-reproducible run to run.
		clear(weights)
		for ci := range cents {
			cents[ci].norm2, cents[ci].count = 0, 0
		}
		for i, p := range reps {
			c := &cents[assign[i]]
			c.count += int(mult[i])
			m := float64(mult[i])
			for _, d := range p {
				c.weights[d] += m
			}
		}
		for ci := range cents {
			cents[ci].normalize()
		}
	}

	// Final scatter statistics: one distance per distinct point, summed
	// once per input point in input order. The global centroid reuses
	// the first centroid's weights, which are no longer needed.
	dist = dist[:len(reps)]
	for i, p := range reps {
		dist[i] = sqDistance(p, &cents[assign[i]])
	}
	var withinSS float64
	for _, u := range of {
		withinSS += dist[u]
	}
	global := centroid{weights: weights[:nd], count: n}
	clear(global.weights)
	for i, p := range reps {
		m := float64(mult[i])
		for _, d := range p {
			global.weights[d] += m
		}
	}
	global.normalize()
	for i, p := range reps {
		dist[i] = sqDistance(p, &global)
	}
	var totalSS float64
	for _, u := range of {
		totalSS += dist[u]
	}

	// Renumber non-empty clusters densely, in order of first use.
	remap := make([]int32, k)
	for i := range remap {
		remap[i] = -1
	}
	out := make([]int32, n)
	nc := int32(0)
	for i, u := range of {
		a := assign[u]
		if remap[a] < 0 {
			remap[a] = nc
			nc++
		}
		out[i] = remap[a]
	}
	if nc < 2 {
		return nil, ErrDegenerate
	}
	res := &Result{Assign: out, NumClusters: int(nc), WithinSS: withinSS, TotalSS: totalSS}
	if !converged {
		return res, ErrAborted
	}
	return res, nil
}

// normalize turns a centroid's summed member vectors into their mean
// and computes its squared norm, in dense index order.
func (c *centroid) normalize() {
	if c.count == 0 {
		return
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

// distinct groups equal points by sorting their indices: of[i] is the
// distinct point input point i equals, reps the distinct points (in
// sorted order) and mult how many input points equal each.
func distinct(points []Point) (of []int32, reps []Point, mult []int32) {
	idx := make([]int32, len(points))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return slices.Compare(points[a], points[b]) })
	of = make([]int32, len(points))
	u := int32(-1)
	for j, i := range idx {
		if j == 0 || !slices.Equal(points[i], points[idx[j-1]]) {
			u++
		}
		of[i] = u
	}
	reps = make([]Point, u+1)
	mult = make([]int32, u+1)
	for i, u := range of {
		reps[u] = points[i]
		mult[u]++
	}
	return of, reps, mult
}

// SortPoint normalizes a point in place (sorts and deduplicates its
// dimensions) and returns it; builders use this before calling Run.
func SortPoint(p Point) Point {
	slices.Sort(p)
	k := 0
	for i := range p {
		if i == 0 || p[i] != p[i-1] {
			p[k] = p[i]
			k++
		}
	}
	return p[:k]
}
