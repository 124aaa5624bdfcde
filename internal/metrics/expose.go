package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// WriteText renders a snapshot in the Prometheus text exposition style:
// one `# TYPE` comment per family, counters and gauges as bare values,
// histograms as cumulative `_bucket{le=...}` lines plus `_sum`,
// `_count`, and precomputed `{quantile=...}` estimates. Names are
// emitted in sorted order so scrapes diff cleanly.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", k, k, s.Counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", k, k, s.Gauges[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", k); err != nil {
			return err
		}
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", float64(h.Bounds[i])/float64(time.Second))
			}
			// OpenMetrics-style exemplar suffix: the retained trace ID of
			// the last request that landed in this bucket.
			ex := ""
			if i < len(h.Exemplars) && h.Exemplars[i] != 0 {
				ex = fmt.Sprintf(" # {trace_id=\"%d\"}", h.Exemplars[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", k, le, cum, ex); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n",
			k, float64(h.Sum)/float64(time.Second), k, h.Count); err != nil {
			return err
		}
		for _, q := range []struct {
			q float64
			v int64
		}{{0.5, h.P50()}, {0.95, h.P95()}, {0.99, h.P99()}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n",
				k, q.q, float64(q.v)/float64(time.Second)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry's current state
// as the text exposition (the snserve /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WriteText(w)
	})
}

// JSONHandler returns an http.Handler serving the registry's current
// state as a raw Snapshot in JSON (the /metrics.json endpoint): the
// machine-to-machine scrape format. Every Snapshot field is exported,
// so the router's federation scrape decodes it back into a Snapshot
// losslessly and merges it.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(r.Snapshot())
	})
}
