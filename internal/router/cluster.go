package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"context"

	"snode/internal/metrics"
)

// Fleet metrics federation: the router scrapes every replica's
// /metrics.json, merges the snapshots bucket-wise (metrics.MergeAll),
// and serves the per-replica, per-shard, and cluster-wide views at
// /cluster/metrics. A replica that stops answering is reported from
// the router's scrape cache with a staleness mark and the snapshot's
// age, so an ejected replica's last-known counters stay visible
// instead of silently vanishing from the cluster totals.

// ReplicaMetrics is one replica's entry in the federation response.
type ReplicaMetrics struct {
	Shard   int    `json:"shard"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Stale marks a snapshot served from the scrape cache because the
	// live scrape failed; AgeSeconds is how old the snapshot is.
	Stale      bool              `json:"stale"`
	AgeSeconds float64           `json:"age_seconds"`
	Error      string            `json:"error,omitempty"`
	Snapshot   *metrics.Snapshot `json:"snapshot,omitempty"`
}

// ShardMetrics is one shard's merged view across its replicas.
type ShardMetrics struct {
	Shard    int              `json:"shard"`
	Replicas int              `json:"replicas"`
	Merged   metrics.Snapshot `json:"merged"`
}

// ClusterMetrics is the /cluster/metrics response: every replica's
// snapshot (live or stale-cached), per-shard merges, and the
// cluster-wide merge of everything the scrape could see.
type ClusterMetrics struct {
	At       time.Time        `json:"at"`
	Shards   int              `json:"shards"`
	Replicas []ReplicaMetrics `json:"replicas"`
	PerShard []ShardMetrics   `json:"per_shard"`
	Cluster  metrics.Snapshot `json:"cluster"`
	// Errors carries scrape and merge failures (a histogram
	// bounds-mismatch between replicas lands here, not in a 500).
	Errors []string `json:"errors,omitempty"`
}

// scrapeReplica fetches one replica's /metrics.json and refreshes its
// cache; on failure it falls back to the cached snapshot, marked
// stale.
func (r *Router) scrapeReplica(ctx context.Context, s int, rep *replica, now time.Time) ReplicaMetrics {
	out := ReplicaMetrics{Shard: s, URL: rep.url, Healthy: rep.healthy.Load()}
	snap, err := r.fetchSnapshot(ctx, rep.url)
	if err == nil {
		rep.scrapeMu.Lock()
		rep.lastSnap, rep.lastAt = snap, now
		rep.scrapeMu.Unlock()
		out.Snapshot = snap
		return out
	}
	out.Error = err.Error()
	rep.scrapeMu.Lock()
	cached, at := rep.lastSnap, rep.lastAt
	rep.scrapeMu.Unlock()
	if cached != nil {
		out.Snapshot = cached
		out.Stale = true
		out.AgeSeconds = now.Sub(at).Seconds()
	}
	return out
}

func (r *Router) fetchSnapshot(ctx context.Context, base string) (*metrics.Snapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s/metrics.json: status %d", base, resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%s/metrics.json: %w", base, err)
	}
	return &snap, nil
}

// ScrapeCluster scrapes every replica concurrently and builds the
// federated view. Exported so the load harness can read the cluster
// totals in-process.
func (r *Router) ScrapeCluster(ctx context.Context) ClusterMetrics {
	now := time.Now()
	cm := ClusterMetrics{At: now, Shards: len(r.shards)}

	type slot struct {
		s   int
		idx int
	}
	var slots []slot
	for s, set := range r.shards {
		for i := range set.replicas {
			slots = append(slots, slot{s, i})
		}
	}
	results := make([]ReplicaMetrics, len(slots))
	var wg sync.WaitGroup
	for i, sl := range slots {
		wg.Add(1)
		go func(i int, sl slot) {
			defer wg.Done()
			results[i] = r.scrapeReplica(ctx, sl.s, r.shards[sl.s].replicas[sl.idx], now)
		}(i, sl)
	}
	wg.Wait()
	cm.Replicas = results

	perShard := make([][]metrics.Snapshot, len(r.shards))
	var all []metrics.Snapshot
	for _, rm := range results {
		if rm.Snapshot == nil {
			continue
		}
		perShard[rm.Shard] = append(perShard[rm.Shard], *rm.Snapshot)
		all = append(all, *rm.Snapshot)
	}
	for s, snaps := range perShard {
		merged, err := metrics.MergeAll(snaps...)
		if err != nil {
			cm.Errors = append(cm.Errors, fmt.Sprintf("shard %d merge: %v", s, err))
		}
		cm.PerShard = append(cm.PerShard, ShardMetrics{Shard: s, Replicas: len(snaps), Merged: merged})
	}
	cluster, err := metrics.MergeAll(all...)
	if err != nil {
		cm.Errors = append(cm.Errors, fmt.Sprintf("cluster merge: %v", err))
	}
	cm.Cluster = cluster
	return cm
}

// handleClusterMetrics serves the federated view as JSON.
func (r *Router) handleClusterMetrics(w http.ResponseWriter, req *http.Request) {
	cm := r.ScrapeCluster(req.Context())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(cm)
}
