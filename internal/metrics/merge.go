package metrics

import "fmt"

// Snapshot merging is the fleet-federation substrate: the router
// scrapes every shard replica's registry as a Snapshot (the
// /metrics.json wire form — every field is exported, so a snapshot
// JSON round-trips losslessly) and folds them into per-shard and
// cluster-wide aggregates with Merge. Counters and gauges sum;
// histograms merge bucket-wise, which is exact because every replica
// builds its latency histograms over the same fixed bounds
// (DefaultLatencyBuckets). A replica with differently-shaped buckets
// cannot be merged meaningfully, so that case is a typed error, not a
// silent approximation.

// BoundsMismatchError reports a histogram merge/subtract between
// snapshots whose bucket bounds differ — different builds or configs
// on the two sides.
type BoundsMismatchError struct {
	// Metric is the histogram's registry name ("" when merging bare
	// HistSnapshots).
	Metric string
	// A and B are the two sides' bucket upper bounds.
	A, B []int64
}

func (e *BoundsMismatchError) Error() string {
	name := e.Metric
	if name == "" {
		name = "histogram"
	}
	return fmt.Sprintf("metrics: %s: bucket bounds mismatch (%d vs %d buckets)", name, len(e.A), len(e.B))
}

// sameBounds reports whether two bound slices are identical.
func sameBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge returns the bucket-wise sum of two histogram snapshots. Per
// bucket the receiver's exemplar is kept unless it has none — each
// bucket still names one real request that landed in it — and the
// merged snapshot's TailExemplar therefore points into the highest
// occupied bucket across both sides: the slowest request either side
// has an exemplar for.
func (s HistSnapshot) Merge(o HistSnapshot) (HistSnapshot, error) {
	if o.Count == 0 && len(o.Counts) == 0 {
		return s.clone(), nil
	}
	if s.Count == 0 && len(s.Counts) == 0 {
		return o.clone(), nil
	}
	if !sameBounds(s.Bounds, o.Bounds) {
		return HistSnapshot{}, &BoundsMismatchError{A: s.Bounds, B: o.Bounds}
	}
	out := s.clone()
	for i := range o.Counts {
		out.Counts[i] += o.Counts[i]
	}
	for i := range o.Exemplars {
		if out.Exemplars[i] == 0 {
			out.Exemplars[i] = o.Exemplars[i]
		}
	}
	out.Count += o.Count
	out.Sum += o.Sum
	return out, nil
}

// Sub returns the bucket-wise difference s - o: the observations made
// since o was taken. Two cumulative snapshots of the same histogram
// bracket a window, and the difference is that window's latency
// distribution (the benchmark harness reads a traced window's admission
// wait this way). Bucket counts are clamped at zero (a restarted
// replica's counters moved backwards; treating that as an empty window
// beats reporting negative traffic). Exemplars keep the newer side's
// values.
func (s HistSnapshot) Sub(o HistSnapshot) (HistSnapshot, error) {
	if o.Count == 0 && len(o.Counts) == 0 {
		return s.clone(), nil
	}
	if !sameBounds(s.Bounds, o.Bounds) {
		return HistSnapshot{}, &BoundsMismatchError{A: s.Bounds, B: o.Bounds}
	}
	out := s.clone()
	for i := range o.Counts {
		out.Counts[i] -= o.Counts[i]
		if out.Counts[i] < 0 {
			out.Counts[i] = 0
		}
	}
	out.Count -= o.Count
	out.Sum -= o.Sum
	if out.Count < 0 {
		out.Count = 0
	}
	if out.Sum < 0 {
		out.Sum = 0
	}
	return out, nil
}

func (s HistSnapshot) clone() HistSnapshot {
	out := HistSnapshot{
		Bounds:    append([]int64(nil), s.Bounds...),
		Counts:    append([]int64(nil), s.Counts...),
		Exemplars: append([]uint64(nil), s.Exemplars...),
		Count:     s.Count,
		Sum:       s.Sum,
	}
	return out
}

// Merge folds another registry snapshot into this one: counters and
// gauges sum by name, histograms merge bucket-wise, and instruments
// present on only one side carry over unchanged. The receiver is not
// modified. The first histogram whose bounds disagree aborts the merge
// with a BoundsMismatchError naming the metric.
func (s Snapshot) Merge(o Snapshot) (Snapshot, error) {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		out.Gauges[k] += v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v.clone()
	}
	for k, v := range o.Histograms {
		prev, ok := out.Histograms[k]
		if !ok {
			out.Histograms[k] = v.clone()
			continue
		}
		m, err := prev.Merge(v)
		if err != nil {
			if bm, ok := err.(*BoundsMismatchError); ok {
				bm.Metric = k
			}
			return Snapshot{}, err
		}
		out.Histograms[k] = m
	}
	return out, nil
}

// MergeAll folds any number of snapshots into one cluster-wide view.
// With no inputs it returns an empty (non-nil-mapped) snapshot.
func MergeAll(snaps ...Snapshot) (Snapshot, error) {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	var err error
	for _, s := range snaps {
		out, err = out.Merge(s)
		if err != nil {
			return Snapshot{}, err
		}
	}
	return out, nil
}
