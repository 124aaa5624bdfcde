package snode

import (
	"testing"

	"snode/internal/metrics"
	"snode/internal/webgraph"
)

// TestRegisterMetricsReconcilesWithStatsExt scrapes the registry after
// a workload and checks every exported counter against the StatsExt
// snapshot — the acceptance bar for the /metrics endpoint.
func TestRegisterMetricsReconcilesWithStatsExt(t *testing.T) {
	c, _ := buildOnce(t)
	r := openRep(t, 1<<20)
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg, "snode")

	var buf []webgraph.PageID
	for p := int32(0); int(p) < c.Graph.NumPages(); p += 7 {
		var err error
		buf, err = r.Out(p, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	st := r.StatsExt()
	for name, want := range map[string]int64{
		"snode_cache_hits":         st.Cache.Hits,
		"snode_cache_misses":       st.Cache.Misses,
		"snode_cache_loads":        st.Cache.Loads,
		"snode_cache_coalesced":    st.Cache.Coalesced,
		"snode_cache_evictions":    st.Cache.Evictions,
		"snode_cache_materialized": st.Cache.Materialized,
		"snode_cache_list_decodes": st.Cache.ListDecodes,
		"snode_decoded_edges":      r.DecodedEdges(),
		"snode_io_seeks":           st.IO.Seeks,
		"snode_io_reads":           st.IO.Reads,
		"snode_io_bytes_read":      st.IO.BytesRead,
		"snode_io_skipped_bytes":   st.IO.SkippedBytes,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (StatsExt)", name, got, want)
		}
	}
	if snap.Gauges["snode_cache_bytes"] != r.cache.usedBytes() {
		t.Errorf("snode_cache_bytes = %d, want %d", snap.Gauges["snode_cache_bytes"], r.cache.usedBytes())
	}
	if snap.Gauges["snode_cache_entries"] <= 0 {
		t.Errorf("snode_cache_entries = %d, want > 0 after workload", snap.Gauges["snode_cache_entries"])
	}
	h := snap.Histograms["snode_decode_seconds"]
	if h.Count != st.Cache.Loads+st.Cache.Materialized+st.Cache.ListDecodes {
		// Every successful load is exactly one timed decode, and so is
		// every materialization of an encoded entry and every list
		// decoded out of one.
		t.Errorf("decode histogram count = %d, want %d loads + %d materializations + %d list decodes",
			h.Count, st.Cache.Loads, st.Cache.Materialized, st.Cache.ListDecodes)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 || st.Cache.Loads == 0 || st.Cache.Materialized == 0 || st.Cache.ListDecodes == 0 {
		t.Fatalf("workload produced no cache traffic: %+v", st.Cache)
	}
}
