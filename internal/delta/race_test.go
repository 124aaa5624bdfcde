package delta_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/delta"
	"snode/internal/iosim"
	"snode/internal/randutil"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// TestChaosReadersWritersCompactor is the delta race suite: concurrent
// mutators, readers, a page adder, the background compactor (seal and
// size-tiered merge firing) and a fold-back its owner calls mid-storm,
// as a live replica's does, over a real S-Node base, designed to run
// under -race (make test-delta-race). Writers own disjoint source-page
// residue classes, so the final state is deterministic and checked
// against a sequential reference after the storm quiesces.
func TestChaosReadersWritersCompactor(t *testing.T) {
	const (
		pages      = 2000
		writers    = 4
		readers    = 4
		batches    = 60
		batchSize  = 16
		addedPages = 8
	)
	ctx := context.Background()
	crawl, err := synth.Generate(synth.DefaultConfig(pages))
	if err != nil {
		t.Fatal(err)
	}
	corpus := crawl.Corpus
	baseDir := t.TempDir()
	cfg := snode.DefaultConfig()
	if _, err := snode.Build(corpus, cfg, baseDir); err != nil {
		t.Fatal(err)
	}
	base, err := snode.Open(baseDir, 4<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	o, err := delta.NewOverlay(base, delta.Config{
		Pages: corpus.Pages,
		Dir:   t.TempDir(),
		Model: iosim.Model2002(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	comp := delta.StartCompactor(ctx, o, delta.CompactorConfig{
		Interval:    time.Millisecond,
		SealBytes:   8 << 10,
		MaxSegments: 2,
		OnError:     func(err error) { t.Errorf("compactor: %v", err) },
	})
	foldCfg := delta.FoldConfig{
		SNode:       cfg,
		Dir:         t.TempDir(),
		CacheBudget: 4 << 20,
		Model:       iosim.Model2002(),
	}

	ranges := store.NewDomainRanges(corpus.Pages)
	domainList := make([]string, 0, len(ranges))
	for d := range ranges {
		domainList = append(domainList, d)
	}

	var wgMut, wgRead sync.WaitGroup
	var stormOver atomic.Bool
	logs := make([][]delta.Mutation, writers)

	// Writers: each owns src pages p ≡ w (mod writers), so concurrent
	// logs never touch the same (src, dst) pair and the union of the
	// per-writer sequences is a deterministic final state.
	for w := 0; w < writers; w++ {
		wgMut.Add(1)
		go func(w int) {
			defer wgMut.Done()
			rng := randutil.NewRNG(uint64(1000 + w))
			for b := 0; b < batches; b++ {
				muts := make([]delta.Mutation, 0, batchSize)
				for i := 0; i < batchSize; i++ {
					src := webgraph.PageID(rng.Intn(pages/writers)*writers + w)
					m := delta.Mutation{
						Src: src,
						Dst: webgraph.PageID(rng.Intn(pages)),
						Op:  delta.OpAdd,
					}
					if rng.Intn(2) == 0 {
						m.Op = delta.OpRemove
					}
					muts = append(muts, m)
				}
				if err := o.Apply(ctx, muts); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				logs[w] = append(logs[w], muts...)
				// Pace the storm across compactor ticks so seals,
				// merges, and fold-backs all fire while it runs.
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Page adder: grows the page space concurrently with everything
	// else; links go out of the new pages only, so writer disjointness
	// is preserved.
	addLog := make([]delta.Mutation, 0, addedPages*4)
	var addIDs []webgraph.PageID
	wgMut.Add(1)
	go func() {
		defer wgMut.Done()
		rng := randutil.NewRNG(77)
		for i := 0; i < addedPages; i++ {
			id, err := o.AddPage(webgraph.PageMeta{
				URL:    "http://new.example/p" + string(rune('a'+i)),
				Domain: "new.example",
			})
			if err != nil {
				t.Errorf("adder: %v", err)
				return
			}
			addIDs = append(addIDs, id)
			muts := make([]delta.Mutation, 0, 4)
			for j := 0; j < 4; j++ {
				muts = append(muts, delta.Mutation{
					Src: id,
					Dst: webgraph.PageID(rng.Intn(pages)),
					Op:  delta.OpAdd,
				})
			}
			if err := o.Apply(ctx, muts); err != nil {
				t.Errorf("adder: %v", err)
				return
			}
			addLog = append(addLog, muts...)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers: random filtered and unfiltered lookups; under churn the
	// exact answer is racy, but every returned list must be
	// duplicate-free and every filtered target must satisfy the filter.
	for r := 0; r < readers; r++ {
		wgRead.Add(1)
		go func(r int) {
			defer wgRead.Done()
			rng := randutil.NewRNG(uint64(5000 + r))
			var buf []webgraph.PageID
			for !stormOver.Load() {
				p := webgraph.PageID(rng.Intn(pages))
				var f *store.Filter
				d := ""
				if rng.Intn(2) == 0 {
					d = domainList[rng.Intn(len(domainList))]
					f = store.NewFilter(ranges[d])
				}
				var err error
				buf, err = o.OutFiltered(p, f, buf[:0])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				seen := map[webgraph.PageID]bool{}
				for _, tgt := range buf {
					if seen[tgt] {
						t.Errorf("reader %d: duplicate target %d for page %d", r, tgt, p)
						return
					}
					seen[tgt] = true
					if f != nil && corpus.Pages[tgt].Domain != d {
						t.Errorf("reader %d: target %d escapes filter", r, tgt)
						return
					}
				}
				_ = o.Stats()
				if rng.Intn(16) == 0 {
					_ = o.DeltaStatsNow()
					_ = o.SizeBytes()
					_ = o.Name()
				}
			}
		}(r)
	}

	// Folder: once 2,200 of the storm's ~3,900 records are in, fold the
	// delta back into a fresh base — beside the writers still running,
	// the compactor's seals and merges, and the readers, which are only
	// released after it returns, so a fold-back provably overlaps them.
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		for o.DeltaStatsNow().AppliedOps < 2200 && !t.Failed() {
			time.Sleep(time.Millisecond)
		}
		if _, err := o.FoldBack(ctx, foldCfg); err != nil {
			t.Errorf("fold-back: %v", err)
		}
	}()

	// Run the storm: mutators finish, the fold-back returns, then readers
	// are released and the compactor stops.
	wgMut.Wait()
	<-folded
	if ds := o.DeltaStatsNow(); ds.Folds == 0 && !t.Failed() {
		t.Errorf("no fold-back: %+v", ds)
	}
	stormOver.Store(true)
	wgRead.Wait()
	comp.Stop()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: verify the final state against a sequential reference.
	// Writer logs are disjoint by construction, so concatenation order
	// between writers is irrelevant; within a writer, order is applied.
	n := pages + len(addIDs)
	want := make([]map[webgraph.PageID]bool, n)
	for p := 0; p < n; p++ {
		want[p] = map[webgraph.PageID]bool{}
		if p < pages {
			for _, tgt := range corpus.Graph.Out(webgraph.PageID(p)) {
				want[p][tgt] = true
			}
		}
	}
	for _, log := range append(logs, addLog) {
		for _, m := range log {
			if m.Op == delta.OpAdd {
				want[m.Src][m.Dst] = true
			} else {
				delete(want[m.Src], m.Dst)
			}
		}
	}
	var buf []webgraph.PageID
	for p := 0; p < n; p++ {
		var err error
		buf, err = o.Out(webgraph.PageID(p), buf[:0])
		if err != nil {
			t.Fatalf("final Out(%d): %v", p, err)
		}
		if len(buf) != len(want[p]) {
			t.Fatalf("final Out(%d): %d targets, want %d", p, len(buf), len(want[p]))
		}
		for _, tgt := range buf {
			if !want[p][tgt] {
				t.Fatalf("final Out(%d): unexpected target %d", p, tgt)
			}
		}
	}
	ds := o.DeltaStatsNow()
	if ds.Seals == 0 {
		t.Error("storm produced no seals — compactor policy never fired")
	}
	t.Logf("chaos: %+v", ds)
}
