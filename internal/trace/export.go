package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// SpanJSON is one exported span node.
type SpanJSON struct {
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	DurNs    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Open     bool             `json:"open,omitempty"` // not ended at export time; DurNs is 0
	Children []*SpanJSON      `json:"children,omitempty"`
}

// TraceJSON is the /debug/traces detail form of a trace.
type TraceJSON struct {
	ID    uint64 `json:"id"`
	Class string `json:"class"`
	// ParentID names the remote parent trace when this trace was
	// force-sampled as one leg of a routed request.
	ParentID uint64           `json:"parent_id,omitempty"`
	Start    time.Time        `json:"start"`
	TotalNs  int64            `json:"total_ns"`
	Dropped  int64            `json:"dropped_spans,omitempty"`
	Counters map[string]int64 `json:"counters"`
	Root     *SpanJSON        `json:"root"`
	// Remotes are stitched per-shard subtrees (router traces only).
	Remotes []Remote `json:"remotes,omitempty"`
}

// Summary is the /debug/traces list form of a trace.
type Summary struct {
	ID       uint64    `json:"id"`
	Class    string    `json:"class"`
	ParentID uint64    `json:"parent_id,omitempty"`
	Start    time.Time `json:"start"`
	TotalNs  int64     `json:"total_ns"`
	Spans    int       `json:"spans"`
	Remotes  int       `json:"remotes,omitempty"`
	Seeks    int64     `json:"seeks"`
	Decodes  int64     `json:"decodes"`
}

// Summary returns the trace's list-view digest.
func (t *Trace) Summary() Summary {
	t.mu.Lock()
	n := len(t.spans)
	total := t.total
	nr := len(t.remotes)
	t.mu.Unlock()
	return Summary{
		ID: t.ID, Class: t.Class, ParentID: t.ParentID, Start: t.Start,
		TotalNs: int64(total), Spans: n, Remotes: nr,
		Seeks: t.Counter(CtrSeeks), Decodes: t.Counter(CtrDecodes),
	}
}

// JSON converts the trace to its exported tree form. It is the one
// walk of the span slice: Render and WriteChromeTrace print its Root,
// the same tree a stitched remote subtree arrives as.
func (t *Trace) JSON() TraceJSON {
	t.mu.Lock()
	nodes := make([]*SpanJSON, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		n := &SpanJSON{Name: s.name, StartNs: int64(s.start), DurNs: int64(s.dur)}
		if s.dur < 0 {
			n.DurNs, n.Open = 0, true
		}
		if s.nattrs > 0 {
			n.Attrs = make(map[string]int64, s.nattrs)
			for _, a := range s.attrs[:s.nattrs] {
				n.Attrs[a.Key] = a.Val
			}
		}
		nodes[i] = n
		// A span's parent is always recorded before it.
		if s.parent >= 0 {
			nodes[s.parent].Children = append(nodes[s.parent].Children, n)
		}
	}
	dropped, total := t.dropped, t.total
	remotes := append([]Remote(nil), t.remotes...)
	t.mu.Unlock()
	ctrs := map[string]int64{}
	for i := 0; i < NumCounters; i++ {
		if v := t.Counter(i); v != 0 {
			ctrs[CtrNames[i]] = v
		}
	}
	return TraceJSON{
		ID: t.ID, Class: t.Class, ParentID: t.ParentID, Start: t.Start,
		TotalNs: int64(total), Dropped: dropped,
		Counters: ctrs, Root: nodes[0], Remotes: remotes,
	}
}

// Render writes the span tree as indented text (the snquery -trace
// view): offsets, durations, and attributes per span, then the
// per-request counters and any stitched remote subtrees.
func (t *Trace) Render(w io.Writer) {
	j := t.JSON()
	fmt.Fprintf(w, "trace %d [%s] total %v\n", j.ID, j.Class, time.Duration(j.TotalNs).Round(time.Microsecond))
	renderSpanJSON(w, j.Root, 0)
	if j.Dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped over the per-trace cap)\n", j.Dropped)
	}
	for _, name := range CtrNames {
		if v := j.Counters[name]; v != 0 {
			fmt.Fprintf(w, "  %s=%d", name, v)
		}
	}
	io.WriteString(w, "\n")
	for _, rm := range j.Remotes {
		fmt.Fprintf(w, "remote %s (trace %d, +%v after router start)\n",
			rm.Label, rm.TraceID, rm.Start.Sub(j.Start).Round(time.Microsecond))
		renderSpanJSON(w, rm.Root, 1)
	}
}

// renderSpanJSON renders an exported span subtree, local or remote, one
// indented line a span with its attributes in key order.
func renderSpanJSON(w io.Writer, s *SpanJSON, depth int) {
	if s == nil {
		return
	}
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	open := ""
	if s.Open {
		open = " (open)"
	}
	fmt.Fprintf(w, "%-20s +%-12v %v%s", s.Name,
		time.Duration(s.StartNs).Round(time.Microsecond),
		time.Duration(s.DurNs).Round(time.Microsecond), open)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, s.Attrs[k])
	}
	io.WriteString(w, "\n")
	for _, c := range s.Children {
		renderSpanJSON(w, c, depth+1)
	}
}

// chromeEvent is one trace_event record. Timestamps and durations are
// microseconds, the unit chrome://tracing expects. Args is either a
// span's numeric attribute map or, for "M" metadata events, the string
// map chrome expects (e.g. {"name": "shard1 ..."}).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  uint64  `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// chromeSpanEvents flattens an exported span subtree into "X" events
// in one pid lane. base is the owning trace's start in microseconds.
func chromeSpanEvents(events []chromeEvent, s *SpanJSON, base float64, pid uint64, depth int) []chromeEvent {
	if s == nil {
		return events
	}
	var args any
	if len(s.Attrs) > 0 {
		args = s.Attrs
	}
	events = append(events, chromeEvent{
		Name: s.Name,
		Ph:   "X",
		Ts:   base + float64(s.StartNs)/1e3,
		Dur:  float64(s.DurNs) / 1e3,
		Pid:  pid,
		Tid:  depth,
		Args: args,
	})
	for _, c := range s.Children {
		events = chromeSpanEvents(events, c, base, pid, depth+1)
	}
	return events
}

// processName emits the "M" metadata event that labels a pid lane.
func processName(pid uint64, name string) chromeEvent {
	return chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": name},
	}
}

// WriteChromeTrace writes the traces as Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
// Each trace gets its own pid lane; span depth maps to tid so sibling
// spans from concurrent goroutines stay visually separated. A stitched
// distributed trace additionally gets one pid lane per remote subtree
// (labelled with the shard via process_name metadata), so a routed
// request renders as a router lane over per-shard process lanes
// aligned on wall-clock time.
func WriteChromeTrace(w io.Writer, traces ...*Trace) error {
	var events []chromeEvent
	for _, t := range traces {
		if t == nil {
			continue
		}
		j := t.JSON()
		if len(j.Remotes) > 0 {
			events = append(events, processName(j.ID, fmt.Sprintf("router trace %d [%s]", j.ID, j.Class)))
		}
		events = chromeSpanEvents(events, j.Root, float64(j.Start.UnixNano())/1e3, j.ID, 0)
		// Remote lanes: pids must not collide with local trace IDs in
		// the same export; local IDs are small sequential counters, so
		// offsetting into the high range keeps lanes distinct.
		for i, rm := range j.Remotes {
			pid := j.ID<<20 | uint64(i+1)
			events = append(events, processName(pid, rm.Label))
			rbase := float64(rm.Start.UnixNano()) / 1e3
			events = chromeSpanEvents(events, rm.Root, rbase, pid, 0)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// Handler serves the tracer's retained traces over HTTP (the snserve
// /debug/traces endpoint):
//
//	/debug/traces                 JSON list of retained trace summaries
//	/debug/traces?id=N            full span tree as JSON
//	/debug/traces?id=N&format=chrome   Chrome trace_event JSON
//	/debug/traces?id=N&format=text     rendered tree, human-readable
func Handler(tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		idStr := req.URL.Query().Get("id")
		if idStr == "" {
			ts := tr.Traces()
			sums := make([]Summary, 0, len(ts))
			for _, t := range ts {
				sums = append(sums, t.Summary())
			}
			sort.Slice(sums, func(i, j int) bool { return sums[i].TotalNs > sums[j].TotalNs })
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			_ = enc.Encode(sums)
			return
		}
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		t := tr.Get(id)
		if t == nil {
			http.Error(w, "trace not retained (displaced from the slow-query log, or never sampled)", http.StatusNotFound)
			return
		}
		switch req.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			_ = WriteChromeTrace(w, t)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			t.Render(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			_ = enc.Encode(t.JSON())
		}
	})
}
