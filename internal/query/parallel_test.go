package query

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snode/internal/repo"
	"snode/internal/store"
	"snode/internal/synth"
)

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

// runParallel serves jobs the way a server does: goroutines over one
// Shared engine, each pulling the next job from an atomic counter.
// Results land in job order; a goroutine stops at its first error, and
// the errors are returned joined.
func runParallel(ctx context.Context, e *Engine, jobs []ID, goroutines int) ([]*Result, error) {
	sh := e.Shared()
	out := make([]*Result, len(jobs))
	errs := make([]error, goroutines)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs) && errs[g] == nil; i = int(next.Add(1) - 1) {
				out[i], errs[g] = sh.Run(ctx, jobs[i])
			}
		}(g)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// TestParallelEqualsSerialAcrossSeeds verifies the central equivalence
// property of concurrent serving: for five different corpora, the rows
// four goroutines get from one Shared engine match a serial RunAll
// exactly. Each query sorts its rows deterministically, so concurrency
// must not change a single (Key, Value) pair.
func TestParallelEqualsSerialAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{3, 17, 41, 99, 20030226} {
		cfg := synth.DefaultConfig(2500)
		cfg.Seed = seed
		crawl, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := repo.DefaultOptions(t.TempDir())
		opt.Schemes = []string{repo.SchemeSNode}
		r, err := repo.Build(crawl.Corpus, opt)
		if err != nil {
			t.Fatalf("seed %d: repo.Build: %v", seed, err)
		}
		e, err := New(r, repo.SchemeSNode)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := e.RunAll(context.Background())
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		par, err := runParallel(context.Background(), e, All(), 4)
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("seed %d: %d parallel results, want %d", seed, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Query != serial[i].Query {
				t.Fatalf("seed %d: result %d is Q%d, want Q%d",
					seed, i, par[i].Query, serial[i].Query)
			}
			if !rowsEqual(par[i].Rows, serial[i].Rows) {
				t.Fatalf("seed %d Q%d: parallel rows differ from serial\nserial: %v\nparallel: %v",
					seed, serial[i].Query, serial[i].Rows, par[i].Rows)
			}
		}
		r.Close()
	}
}

// TestConcurrentQueryStress runs a 32-goroutine mixed Query 1-6
// workload against one shared S-Node engine for over two seconds,
// checking every result against the serial baseline. Under -race this
// is the serving path's end-to-end detector.
func TestConcurrentQueryStress(t *testing.T) {
	r := getRepo(t)
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := e.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[ID][]Row{}
	for _, res := range baseline {
		want[res.Query] = res.Rows
	}

	sh := e.Shared()
	const goroutines = 32
	deadline := time.Now().Add(2200 * time.Millisecond)
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*31 + 7))
			for time.Now().Before(deadline) {
				q := All()[rng.Intn(6)]
				res, err := sh.Run(context.Background(), q)
				if err != nil {
					t.Errorf("Q%d: %v", q, err)
					return
				}
				if !rowsEqual(res.Rows, want[q]) {
					t.Errorf("Q%d: concurrent rows differ from serial baseline", q)
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ops.Load() < goroutines {
		t.Fatalf("only %d queries completed across %d goroutines", ops.Load(), goroutines)
	}
	t.Logf("stress: %d queries served by %d goroutines", ops.Load(), goroutines)
}

// TestParallelOverlapsPacedIO: with every read sleeping its modeled
// disk cost, four goroutines over one shared S-Node representation
// serve the same cold query mix more than 1.5x faster than one — the
// stalls overlap instead of queueing behind a lock. Under the race
// detector the ratio is logged, not asserted: its instrumentation
// multiplies the CPU share that one core cannot overlap.
func TestParallelOverlapsPacedIO(t *testing.T) {
	r := getRepo(t)
	e, err := New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 128 << 10
	stores := []store.LinkStore{r.Fwd[repo.SchemeSNode], r.Rev[repo.SchemeSNode]}
	for _, s := range stores {
		s.(store.Pacer).SetPace(1)
	}
	defer func() {
		for _, s := range stores {
			s.(store.Pacer).SetPace(0)
			s.(store.CacheResetter).ResetCache(16 << 20)
		}
	}()
	var jobs []ID
	for i := 0; i < 4; i++ {
		jobs = append(jobs, All()...)
	}
	cold := func(workers int) time.Duration {
		for _, s := range stores {
			s.(store.CacheResetter).ResetCache(budget)
		}
		start := time.Now()
		if _, err := runParallel(context.Background(), e, jobs, workers); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return time.Since(start)
	}
	serial, parallel := cold(1), cold(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("paced mix: 1 worker %v, 4 workers %v (%.2fx)", serial, parallel, speedup)
	if speedup <= 1.5 && !raceDetectorOn() {
		t.Errorf("4 workers took %v against %v serial: speedup %.2fx, want > 1.5x", parallel, serial, speedup)
	}
}

// raceDetectorOn reports whether this test binary was built with -race.
func raceDetectorOn() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
