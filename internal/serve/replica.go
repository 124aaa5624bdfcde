package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"
	"unsafe"

	"snode/internal/delta"
	"snode/internal/metrics"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// Replica is one serving process over one shard of a dataset directory:
// the query Server plus the rest of the process's HTTP surface and the
// exit sequence that goes with it. A one-shard dataset is served like
// any other — its replica stamps the shard headers and answers
// ?partial=1 — so it also sits behind a router as a one-group tier.
type Replica struct {
	Server *Server
	reg    *metrics.Registry

	// Live replicas only: the overlays /update writes and their
	// compactors.
	fwd, rev   *delta.Overlay
	compactors []*delta.Compactor

	draining atomic.Bool // set once, when Shutdown begins
}

// NewReplica wires an opened shard into its serving stack: the mining
// engine over sh.Repo (boundary-merged stores) restricted to the pages
// the shard owns, the navigation engine over sh.NavRepo (the bare
// intra-shard stores), both recording into cfg.Registry (made here when
// nil; the S-Node stores' cache and I/O metrics go on it too, as
// snode_fwd and snode_rev) and sampling into cfg.Tracer, and a Server
// stamped with the shard's identity and manifest version. cfg's Engine, NavEngine and
// Shard are set here. The replica does not own sh.
//
// A non-empty liveDir makes the replica live: the base stores are
// wrapped in delta overlays with their segments under liveDir, both
// engines read through them, a compactor runs per direction and POST
// /update applies link mutations. Nothing reopens a sealed segment yet,
// so liveDir is scratch: a restarted replica starts from the built
// base. Live needs a one-shard dataset.
func NewReplica(sh *shard.ServingShard, cfg Config, liveDir string) (*Replica, error) {
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	r := &Replica{reg: cfg.Registry}
	cfg.Registry.Gauge("mem_pagemeta_bytes").Set(pageMetaBytes(sh.NavRepo.Corpus.Pages))
	cfg.Registry.Gauge("mem_textindex_bytes").Set(sh.NavRepo.Text.SizeBytes())
	sh.NavRepo.Fwd[repo.SchemeSNode].(*snode.Representation).RegisterMetrics(cfg.Registry, "snode_fwd")
	sh.NavRepo.Rev[repo.SchemeSNode].(*snode.Representation).RegisterMetrics(cfg.Registry, "snode_rev")
	mining, nav := sh.Repo, sh.NavRepo
	if liveDir != "" {
		if k := sh.Manifest.NumShards; k != 1 {
			return nil, fmt.Errorf("serve: live updates need a one-shard dataset, this one has %d shards (an update applied to one shard would bypass the partition)", k)
		}
		overlay := func(base store.LinkStore, name string) (*delta.Overlay, error) {
			return delta.NewOverlay(base, delta.Config{Pages: nav.Corpus.Pages, Dir: filepath.Join(liveDir, name), Model: nav.Model})
		}
		var err error
		if r.fwd, err = overlay(nav.Fwd[repo.SchemeSNode], "delta.fwd"); err != nil {
			return nil, err
		}
		if r.rev, err = overlay(nav.Rev[repo.SchemeSNode], "delta.rev"); err != nil {
			r.fwd.Close()
			return nil, err
		}
		r.fwd.RegisterMetrics(cfg.Registry, "delta_fwd")
		r.rev.RegisterMetrics(cfg.Registry, "delta_rev")
		for _, ov := range []*delta.Overlay{r.fwd, r.rev} {
			r.compactors = append(r.compactors, delta.StartCompactor(context.Background(), ov, delta.CompactorConfig{
				OnError: func(err error) { slog.Error("serve: compactor", "err", err) },
			}))
		}
		mining = nav.WithStores(repo.SchemeSNode, r.fwd, r.rev)
		nav = mining
	}
	var err error
	if cfg.Engine, err = query.New(mining, repo.SchemeSNode); err == nil {
		cfg.NavEngine, err = query.New(nav, repo.SchemeSNode)
	}
	if err == nil {
		cfg.Engine.SetOwner(sh.Owns)
		for _, e := range []*query.Engine{cfg.Engine, cfg.NavEngine} {
			e.SetMetrics(cfg.Registry)
			e.SetTracer(cfg.Tracer)
		}
		cfg.Shard = &ShardInfo{ID: sh.ID, Count: sh.Manifest.NumShards, Version: sh.Manifest.Version}
		r.Server, err = New(cfg)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// pageMetaBytes is the memory pages hold, from what they know: the
// slice at its capacity, each URL's bytes, a domain's bytes once a run
// (the run's pages share one string), and any term lists at their
// capacity with their terms' bytes.
func pageMetaBytes(pages []webgraph.PageMeta) int64 {
	n := int64(cap(pages)) * int64(unsafe.Sizeof(webgraph.PageMeta{}))
	for i, pm := range pages {
		n += int64(len(pm.URL)) + int64(cap(pm.Terms))*int64(unsafe.Sizeof(""))
		if i == 0 || pm.Domain != pages[i-1].Domain {
			n += int64(len(pm.Domain))
		}
		for _, t := range pm.Terms {
			n += int64(len(t))
		}
	}
	return n
}

// SetPace paces the stores the engines read (store.Pacer): a live
// replica's overlays, which pace their own segment reads and forward
// to their base, the base stores otherwise.
func (r *Replica) SetPace(scale float64) {
	nav := r.Server.navEng.R
	for _, s := range []store.LinkStore{nav.Fwd[repo.SchemeSNode], nav.Rev[repo.SchemeSNode]} {
		if p, ok := s.(store.Pacer); ok {
			p.SetPace(scale)
		}
	}
}

// Handler returns the replica's whole HTTP surface: /out and /query,
// /update and /healthz, /metrics and /metrics.json, /debug/traces, and
// MountDebug's endpoints.
func (r *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	r.Server.Register(mux)
	mux.HandleFunc("/update", r.handleUpdate)
	mux.HandleFunc("/healthz", r.handleHealth)
	mux.Handle("/metrics", r.reg.Handler())
	mux.Handle("/metrics.json", r.reg.JSONHandler())
	mux.Handle("/debug/traces", trace.Handler(r.Server.tracer))
	MountDebug(mux, "snode", r.reg)
	return mux
}

// handleHealth reports ready (200) or draining (503) as JSON.
func (r *Replica) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ready"
	if r.draining.Load() {
		status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// maxUpdateBody bounds a POST /update body (about 30,000 mutations);
// a larger one is answered 413.
const maxUpdateBody = 1 << 20

// updateOp is one mutation in a POST /update body. Its fields are
// pointers so that a missing one is told from a zero.
type updateOp struct {
	Src *int32  `json:"src"`
	Dst *int32  `json:"dst"`
	Op  *string `json:"op"`
}

var updateKinds = map[string]delta.Op{"add": delta.OpAdd, "remove": delta.OpRemove}

// handleUpdate applies a JSON array of link mutations to the forward
// overlay and mirrors it into the reverse one, so both navigation
// directions stay consistent (the transposed edge set). The whole body
// is validated before any of it is applied: a bad op anywhere in it, an
// op without src, dst or op, a field no op has, or anything but
// whitespace after the array answers 400 and changes nothing.
func (r *Replica) handleUpdate(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.Method != http.MethodPost:
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	case r.fwd == nil:
		http.Error(w, "server not started with -live", http.StatusServiceUnavailable)
		return
	case r.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var ops []updateOp
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxUpdateBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&ops)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("data after the array")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad body: %v", err), code)
		return
	}
	fwd := make([]delta.Mutation, len(ops))
	rev := make([]delta.Mutation, len(ops))
	for i, op := range ops {
		if op.Src == nil || op.Dst == nil || op.Op == nil {
			http.Error(w, fmt.Sprintf("op %d: src, dst and op are all required", i), http.StatusBadRequest)
			return
		}
		kind, ok := updateKinds[*op.Op]
		if !ok {
			http.Error(w, fmt.Sprintf("op %d: unknown kind %q", i, *op.Op), http.StatusBadRequest)
			return
		}
		src, dst := webgraph.PageID(*op.Src), webgraph.PageID(*op.Dst)
		fwd[i] = delta.Mutation{Src: src, Dst: dst, Op: kind}
		rev[i] = delta.Mutation{Src: dst, Dst: src, Op: kind}
	}
	err = r.fwd.Apply(req.Context(), fwd)
	if err == nil {
		err = r.rev.Apply(req.Context(), rev)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"applied": len(fwd), "delta": r.fwd.DeltaStatsNow()})
}

// Shutdown is the replica's exit sequence, each step reported through
// logf: /healthz and /update flip to draining, so a router stops
// choosing this replica and no further mutation is accepted; srv stops
// accepting and in-flight requests get drain to finish; the compactors
// stop; the delta memtables are sealed into segments. The seal makes
// nothing durable across a restart yet (see NewReplica).
func (r *Replica) Shutdown(srv *http.Server, drain time.Duration, logf func(format string, args ...any)) error {
	r.draining.Store(true)
	logf("draining in-flight requests (deadline %v)...", drain)
	if err := Drain(srv, drain); err != nil {
		logf("drain deadline exceeded, closed the remaining connections: %v", err)
	}
	for _, c := range r.compactors {
		c.Stop()
	}
	if r.fwd == nil {
		return nil
	}
	logf("sealing delta memtables...")
	for _, ov := range []*delta.Overlay{r.fwd, r.rev} {
		if err := ov.Seal(context.Background()); err != nil {
			return fmt.Errorf("seal: %w", err)
		}
	}
	ds := r.fwd.DeltaStatsNow()
	logf("delta state at exit: %d applied ops in %d segment(s)", ds.AppliedOps, ds.Segments)
	return nil
}

// Close stops the compactors and releases the overlays' segment files
// (read-only by now: their Close errors say nothing). The shard the
// replica was made over stays open.
func (r *Replica) Close() {
	for _, c := range r.compactors {
		c.Stop()
	}
	if r.fwd != nil {
		r.fwd.Close()
		r.rev.Close()
	}
}
