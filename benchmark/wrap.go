package main

import (
	"context"
	"time"

	"snode/internal/store"
	"snode/internal/webgraph"
)

// tracedStore is the benchmark's span boundary below the query engine:
// it stands in repo.Repository.Fwd/Rev around the real store
// (snode.Representation, shard.MergedStore or delta.Overlay) and adds
// each call's duration to the scope of the handler that caused it. It
// forwards the optional side-interfaces the serving stack probes for,
// so the wrapped store behaves as the bare one does.
type tracedStore struct {
	store.LinkStore
	ctxStore store.ContextLinkStore // nil when the inner store has no context path
}

func newTracedStore(inner store.LinkStore) *tracedStore {
	t := &tracedStore{LinkStore: inner}
	t.ctxStore, _ = inner.(store.ContextLinkStore)
	return t
}

func (t *tracedStore) OutFilteredCtx(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	sc := scopeFrom(ctx)
	if sc == nil {
		return t.outFiltered(ctx, p, f, buf)
	}
	start := time.Now()
	out, err := t.outFiltered(ctx, p, f, buf)
	sc.outNs.Add(int64(time.Since(start)))
	sc.outCalls.Add(1)
	return out, err
}

func (t *tracedStore) outFiltered(ctx context.Context, p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if t.ctxStore != nil {
		return t.ctxStore.OutFilteredCtx(ctx, p, f, buf)
	}
	if f == nil {
		return t.LinkStore.Out(p, buf)
	}
	return t.LinkStore.OutFiltered(p, f, buf)
}

func (t *tracedStore) ResetCache(budget int64) {
	if cr, ok := t.LinkStore.(store.CacheResetter); ok {
		cr.ResetCache(budget)
	}
}

func (t *tracedStore) SetPace(scale float64) {
	if p, ok := t.LinkStore.(store.Pacer); ok {
		p.SetPace(scale)
	}
}

func (t *tracedStore) SetHedge(after time.Duration) {
	if h, ok := t.LinkStore.(store.Hedger); ok {
		h.SetHedge(after)
	}
}

func (t *tracedStore) SizeBytes() int64 {
	if s, ok := t.LinkStore.(store.Sized); ok {
		return s.SizeBytes()
	}
	return 0
}

// wrapStores puts a tracedStore around every store of a repository's
// serving scheme. Call before query.New: the engine looks up the
// context path once, when it is made.
func wrapStores(m map[string]store.LinkStore) {
	for k, s := range m {
		m[k] = newTracedStore(s)
	}
}
