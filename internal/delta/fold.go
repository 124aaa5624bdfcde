package delta

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"snode/internal/iosim"
	"snode/internal/snode"
	"snode/internal/trace"
	"snode/internal/webgraph"
)

// FoldConfig parameterizes a fold-back: the overlay's accumulated
// deltas are materialized into a mutated corpus and rebuilt into a
// fresh S-Node representation that becomes the overlay's new base.
type FoldConfig struct {
	// SNode is the build configuration handed to snode.BuildCtx — the
	// same knobs (and the same parallel builder) snbuild uses.
	SNode snode.Config
	// Dir is the parent directory for fold outputs; each fold builds
	// into its own fold-<n> subdirectory so the previous base's files
	// stay valid until the swap completes.
	Dir string
	// CacheBudget and Model open the rebuilt representation exactly as
	// snserve opens its initial one.
	CacheBudget int64
	Model       iosim.Model
}

// materializeLocked seals and materializes under structMu, returning
// the corpus and the segment prefix it covers (the segments a fold may
// retire once the rebuilt base is installed). The base is read whole
// through snode.Representation.Scan, so any other base is refused.
func (o *Overlay) materializeLocked(ctx context.Context) (*webgraph.Corpus, []*segment, error) {
	// structMu is held, and only a fold swaps the base.
	base, ok := o.base.(*snode.Representation)
	if !ok {
		return nil, nil, fmt.Errorf("delta: fold-back reads its base with snode.Representation.Scan; base %q is not an S-Node representation", o.base.Name())
	}
	if err := o.sealLocked(ctx); err != nil {
		return nil, nil, err
	}
	// structMu is held: the segment list cannot change. The snapshot
	// covers every mutation applied before this call; later mutations
	// land in the fresh memtable and stay layered over the new base.
	o.mu.RLock()
	segs := append([]*segment(nil), o.segments...)
	// AddPage only appends, so the prefix this slice covers is never
	// written again; its capacity cap keeps an append off it.
	pages := o.pages[:len(o.pages):len(o.pages)]
	o.mu.RUnlock()

	merged := make([][]pageOps, 0, len(segs))
	for _, s := range segs {
		pos, err := s.all(ctx)
		if err != nil {
			return nil, nil, err
		}
		merged = append(merged, pos)
	}
	ops := mergePageOps(merged...)

	// Removed targets are dropped from the base lists; adds are appended
	// (the builder dedups targets the base already had).
	b := webgraph.NewBuilder(len(pages))
	err := base.Scan(ctx, func(p webgraph.PageID, out []webgraph.PageID) error {
		k, mutated := slices.BinarySearchFunc(ops, p, func(po pageOps, p webgraph.PageID) int { return cmp.Compare(po.src, p) })
		for _, t := range out {
			if !mutated || !removedIn(ops[k].ops, t) {
				b.AddEdge(p, t)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("delta: materialize: %w", err)
	}
	for _, po := range ops {
		for _, e := range po.ops {
			if e.op == OpAdd {
				b.AddEdge(po.src, e.dst)
			}
		}
	}
	corpus := &webgraph.Corpus{Graph: b.Build(), Pages: pages}
	if err := corpus.Validate(); err != nil {
		return nil, nil, fmt.Errorf("delta: materialize: %w", err)
	}
	return corpus, segs, nil
}

// removedIn reports whether t carries an OpRemove in a sorted op list.
func removedIn(ops []dstOp, t webgraph.PageID) bool {
	k, ok := slices.BinarySearchFunc(ops, t, func(e dstOp, t webgraph.PageID) int { return cmp.Compare(e.dst, t) })
	return ok && ops[k].op == OpRemove
}

// FoldBack rebuilds the overlay's current state into a fresh S-Node
// representation and installs it as the new base, retiring every delta
// segment the rebuild covered. The build runs through snode.BuildCtx —
// the existing parallel builder — and honours ctx cancellation; on
// error the overlay is untouched. Returns the new base's directory.
// Traced requests record the whole fold as a "delta.fold" span.
func (o *Overlay) FoldBack(ctx context.Context, fc FoldConfig) (string, error) {
	o.structMu.Lock()
	defer o.structMu.Unlock()
	_, span := trace.Start(ctx, "delta.fold")
	defer span.End()
	corpus, segs, err := o.materializeLocked(ctx)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(fc.Dir, fmt.Sprintf("fold-%d", o.folds.Load()+1))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("delta: %w", err)
	}
	if _, err := snode.BuildCtx(ctx, corpus, fc.SNode, dir); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("delta: fold build: %w", err)
	}
	rep, err := snode.Open(dir, fc.CacheBudget, fc.Model)
	if err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("delta: fold open: %w", err)
	}

	o.mu.Lock()
	oldBase, wasOwned, oldDir := o.base, o.ownsBase, o.baseDir
	o.base = rep
	o.baseCtx = rep
	o.ownsBase = true
	o.baseDir = dir
	o.segments = o.segments[len(segs):]
	o.mu.Unlock()

	// No reader can still hold the retired layers: the swap's write
	// lock waited out every in-flight lookup.
	for _, s := range segs {
		s.close()
		os.Remove(s.path)
	}
	if wasOwned {
		oldBase.Close()
		if oldDir != "" {
			os.RemoveAll(oldDir)
		}
	}
	o.folds.Add(1)
	span.SetAttr("pages", int64(len(corpus.Pages)))
	span.SetAttr("segments", int64(len(segs)))
	return dir, nil
}
