package snode

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"snode/internal/iosim"
	"snode/internal/partition"
	"snode/internal/randutil"
	"snode/internal/refenc"
	"snode/internal/webgraph"
)

// randomCorpus builds a small corpus with arbitrary (non-web-like)
// structure: random domains, random URL trees, random edges including
// self-loops and dense pockets. The representation must round-trip ANY
// directed graph, not just crawl-shaped ones.
func randomCorpus(rng *randutil.RNG) *webgraph.Corpus {
	n := 40 + rng.Intn(160)
	nDomains := 1 + rng.Intn(6)
	pages := make([]webgraph.PageMeta, n)
	// Contiguous domains with sorted URLs, as the builder requires of
	// its input ordering.
	p := 0
	for d := 0; d < nDomains && p < n; d++ {
		size := 1 + rng.Intn(n/nDomains+1)
		if d == nDomains-1 {
			size = n - p
		}
		for k := 0; k < size && p < n; k++ {
			dom := fmt.Sprintf("d%02d.com", d)
			depth := rng.Intn(3)
			path := ""
			for l := 0; l < depth; l++ {
				path += fmt.Sprintf("/l%d", rng.Intn(3))
			}
			pages[p] = webgraph.PageMeta{
				URL:    fmt.Sprintf("http://www.%s%s/p%05d.html", dom, path, p),
				Domain: dom,
			}
			p++
		}
	}
	b := webgraph.NewBuilder(n)
	nEdges := rng.Intn(n * 6)
	for e := 0; e < nEdges; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	// A dense pocket to exercise negative superedge graphs.
	if n > 20 && rng.Bool(0.5) {
		for i := 0; i < 8; i++ {
			for j := n - 8; j < n; j++ {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	return &webgraph.Corpus{Graph: b.Build(), Pages: pages}
}

func randomConfig(rng *randutil.RNG) Config {
	cfg := DefaultConfig()
	cfg.Partition.Seed = rng.Uint64()
	cfg.Partition.MinSplitSize = 4 + rng.Intn(64)
	cfg.Refenc = refenc.Options{Window: rng.Intn(16)}
	if rng.Bool(0.2) {
		cfg.Refenc.Exact = true
	}
	cfg.MaxFileSize = int64(1+rng.Intn(64)) << 10
	cfg.DisableNegative = rng.Bool(0.3)
	return cfg
}

// TestQuickRandomGraphRoundTrip: for arbitrary graphs, partitions, and
// codec options, the representation reproduces every adjacency list.
func TestQuickRandomGraphRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randutil.NewRNG(seed)
		c := randomCorpus(rng)
		cfg := randomConfig(rng)
		dir := t.TempDir()
		if _, err := Build(c, cfg, dir); err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		budget := int64(1) << uint(10+rng.Intn(12)) // 1 KB .. 2 MB
		rep, err := Open(dir, budget, iosim.Model2002())
		if err != nil {
			t.Logf("seed %d: open: %v", seed, err)
			return false
		}
		defer rep.Close()
		var buf []webgraph.PageID
		for p := int32(0); int(p) < c.Graph.NumPages(); p++ {
			buf, err = rep.Out(p, buf[:0])
			if err != nil {
				t.Logf("seed %d: out(%d): %v", seed, p, err)
				return false
			}
			got := append([]webgraph.PageID(nil), buf...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := c.Graph.Out(p)
			if len(got) != len(want) {
				t.Logf("seed %d: page %d: %d targets, want %d", seed, p, len(got), len(want))
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed %d: page %d mismatch", seed, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPartitionOrderInsensitive: the representation's answers are
// identical regardless of the partition used to build it.
func TestQuickPartitionInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randutil.NewRNG(seed)
		c := randomCorpus(rng)
		// Two builds: refined partition vs P0 only.
		dirA, dirB := t.TempDir(), t.TempDir()
		if _, err := Build(c, DefaultConfig(), dirA); err != nil {
			return false
		}
		p0 := partition.InitialByDomain(c)
		if _, err := BuildFromPartition(c, p0, DefaultConfig(), dirB, timeNow()); err != nil {
			return false
		}
		a, err := Open(dirA, 1<<20, iosim.Model2002())
		if err != nil {
			return false
		}
		defer a.Close()
		bRep, err := Open(dirB, 1<<20, iosim.Model2002())
		if err != nil {
			return false
		}
		defer bRep.Close()
		var bufA, bufB []webgraph.PageID
		for p := int32(0); int(p) < c.Graph.NumPages(); p += 3 {
			bufA, _ = a.Out(p, bufA[:0])
			bufB, _ = bRep.Out(p, bufB[:0])
			if len(bufA) != len(bufB) {
				return false
			}
			sort.Slice(bufA, func(i, j int) bool { return bufA[i] < bufA[j] })
			sort.Slice(bufB, func(i, j int) bool { return bufB[i] < bufB[j] })
			for i := range bufA {
				if bufA[i] != bufB[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// timeNow is a tiny indirection so property tests can call
// BuildFromPartition without importing time at every call site.
func timeNow() time.Time { return time.Now() }
