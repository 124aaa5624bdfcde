package webgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() *Graph {
	// 0 → 1,2 ; 1 → 2 ; 2 → 0 ; 3 → (none) ; 4 → 3
	b := NewBuilder(5)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate, must coalesce
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(4, 3)
	return b.Build()
}

func TestBuilderSortsAndDedups(t *testing.T) {
	g := buildSample()
	if g.NumPages() != 5 {
		t.Fatalf("NumPages = %d", g.NumPages())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d (duplicate not coalesced?)", g.NumEdges())
	}
	adj := g.Out(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Fatalf("Out(0) = %v", adj)
	}
	if len(g.Out(3)) != 0 {
		t.Fatalf("Out(3) = %v", g.Out(3))
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := buildSample()
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 0) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(1, 0) || g.HasEdge(3, 4) {
		t.Fatal("unexpected edges")
	}
}

func TestOutDegreeAndAvg(t *testing.T) {
	g := buildSample()
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatal("bad degrees")
	}
	if got := g.AvgOutDegree(); got != 1.0 {
		t.Fatalf("AvgOutDegree = %f", got)
	}
}

func TestInDegrees(t *testing.T) {
	g := buildSample()
	deg := g.InDegrees()
	want := []int32{1, 1, 2, 1, 0}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("InDegrees[%d] = %d, want %d", i, deg[i], want[i])
		}
	}
}

func TestTransposeInvertsEdges(t *testing.T) {
	g := buildSample()
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edges %d != %d", tr.NumEdges(), g.NumEdges())
	}
	for p := PageID(0); int(p) < g.NumPages(); p++ {
		for _, q := range g.Out(p) {
			if !tr.HasEdge(q, p) {
				t.Fatalf("edge %d→%d missing in transpose", q, p)
			}
		}
	}
	// Double transpose is the identity.
	if !tr.Transpose().Equal(g) {
		t.Fatal("double transpose differs")
	}
}

func TestTransposeListsSorted(t *testing.T) {
	g := buildSample()
	tr := g.Transpose()
	for p := PageID(0); int(p) < tr.NumPages(); p++ {
		adj := tr.Out(p)
		for i := 1; i < len(adj); i++ {
			if adj[i] <= adj[i-1] {
				t.Fatalf("transpose list of %d not sorted: %v", p, adj)
			}
		}
	}
}

func TestNewGraphCSRValidation(t *testing.T) {
	if _, err := NewGraphCSR([]int64{0, 1}, []PageID{0}); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	if _, err := NewGraphCSR([]int64{1, 2}, []PageID{0}); err == nil {
		t.Fatal("offsets not starting at 0 accepted")
	}
	if _, err := NewGraphCSR([]int64{0, 2}, []PageID{0}); err == nil {
		t.Fatal("end mismatch accepted")
	}
	if _, err := NewGraphCSR([]int64{0, 2}, []PageID{1, 0}); err == nil {
		t.Fatal("unsorted adjacency accepted")
	}
	if _, err := NewGraphCSR([]int64{0, 1}, []PageID{5}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestEqual(t *testing.T) {
	a := buildSample()
	b := buildSample()
	if !a.Equal(b) {
		t.Fatal("identical graphs not Equal")
	}
	c := NewBuilder(5)
	c.AddEdge(0, 1)
	if a.Equal(c.Build()) {
		t.Fatal("different graphs Equal")
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(PageID(rng.Intn(n)), PageID(rng.Intn(n)))
	}
	return b.Build()
}

// Property: transpose preserves edge count and inverts every edge.
func TestQuickTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, rng.Intn(40)+2, rng.Intn(200))
		tr := g.Transpose()
		if tr.NumEdges() != g.NumEdges() {
			return false
		}
		for p := PageID(0); int(p) < g.NumPages(); p++ {
			for _, q := range g.Out(p) {
				if !tr.HasEdge(q, p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: over random graphs, class functions and flips, Cut gives
// each graph exactly the edges of its class, over the same pages, as
// a Builder given them one by one (reversed for a flipped graph) makes
// them; a graph that takes every edge unflipped is g itself.
func TestQuickCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, rng.Intn(40)+2, rng.Intn(200))
		flip := make([]bool, rng.Intn(3)+1)
		for c := range flip {
			flip[c] = rng.Intn(2) == 0
		}
		salt, mod := rng.Intn(1000), len(flip)+1
		into := func(p, q PageID) int { return (int(p)*31+int(q)*17+salt)%mod - 1 }
		cut := g.Cut(flip, into)
		want := make([]*Builder, len(flip))
		for c := range want {
			want[c] = NewBuilder(g.NumPages())
		}
		for p := PageID(0); int(p) < g.NumPages(); p++ {
			for _, q := range g.Out(p) {
				switch c := into(p, q); {
				case c < 0:
				case flip[c]:
					want[c].AddEdge(q, p)
				default:
					want[c].AddEdge(p, q)
				}
			}
		}
		for c, h := range cut {
			if _, err := NewGraphCSR(h.offsets, h.targets); err != nil || !h.Equal(want[c].Build()) {
				return false
			}
		}
		whole := g.Cut([]bool{true, false}, func(p, q PageID) int { return 1 })
		return whole[1] == g && whole[0].NumEdges() == 0 && whole[0].NumPages() == g.NumPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCSimpleCycle(t *testing.T) {
	g := buildSample() // {0,1,2} form a cycle; 3 and 4 are singletons
	comp, n := SCC(g)
	if n != 3 {
		t.Fatalf("nComp = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle split across components: %v", comp)
	}
	if comp[3] == comp[0] || comp[4] == comp[0] || comp[3] == comp[4] {
		t.Fatalf("singletons merged: %v", comp)
	}
}

func TestSCCDAG(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	_, n := SCC(b.Build())
	if n != 4 {
		t.Fatalf("DAG nComp = %d, want 4", n)
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	// Tarjan numbers components in reverse topological order: a
	// component reachable from another gets a smaller number.
	b := NewBuilder(4)
	b.AddEdge(0, 1) // comp(1) < comp(0)
	b.AddEdge(2, 3)
	g := b.Build()
	comp, _ := SCC(g)
	if comp[1] >= comp[0] {
		t.Fatalf("expected comp[1] < comp[0], got %v", comp)
	}
	if comp[3] >= comp[2] {
		t.Fatalf("expected comp[3] < comp[2], got %v", comp)
	}
}

func TestSCCLargeCycleIterative(t *testing.T) {
	// A long path+cycle exercises the iterative DFS (a recursive version
	// would be fine too, but this guards against stack regressions).
	const n = 200000
	offsets := make([]int64, n+1)
	targets := make([]PageID, n)
	for i := 0; i < n; i++ {
		offsets[i+1] = int64(i + 1)
		targets[i] = PageID((i + 1) % n)
	}
	g, err := NewGraphCSR(offsets, targets)
	if err != nil {
		t.Fatal(err)
	}
	comp, nComp := SCC(g)
	if nComp != 1 {
		t.Fatalf("ring graph nComp = %d, want 1", nComp)
	}
	for p, c := range comp {
		if c != 0 {
			t.Fatalf("page %d in component %d of a one-component ring", p, c)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	dist := BFS(g, []PageID{0})
	want := []int32{0, 1, 2, 1, 2, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestBFSMultiSource(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	dist := BFS(b.Build(), []PageID{0, 2})
	if dist[1] != 1 || dist[3] != 1 {
		t.Fatalf("multi-source dist = %v", dist)
	}
}

func TestCorpusValidate(t *testing.T) {
	g := buildSample()
	c := &Corpus{Graph: g, Pages: make([]PageMeta, 5)}
	if err := c.Validate(); err == nil {
		t.Fatal("missing URLs accepted")
	}
	for i := range c.Pages {
		c.Pages[i] = PageMeta{URL: "http://a.com/x", Domain: "a.com"}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}
	// a a b b c is contiguous; a b a b c reopens a at page 2.
	for i, d := range []string{"a.com", "a.com", "b.com", "b.com", "c.com"} {
		c.Pages[i] = PageMeta{URL: fmt.Sprintf("http://%s/%d", d, i), Domain: d}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("contiguous domains rejected: %v", err)
	}
	c.Pages[1], c.Pages[2] = c.Pages[2], c.Pages[1]
	if err := c.Validate(); !errors.Is(err, errDomainReopened) || !strings.Contains(err.Error(), "page 2 reopens a.com") {
		t.Fatalf("a reopened domain: err = %v, want %v naming page 2", err, errDomainReopened)
	}
	c.Pages = c.Pages[:3]
	if err := c.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: two pages share an SCC iff each reaches the other.
func TestQuickSCCMatchesReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		g := randomGraph(rng, n, rng.Intn(3*n))
		comp, _ := SCC(g)
		// All-pairs reachability by BFS from every vertex.
		reach := make([][]int32, n)
		for v := 0; v < n; v++ {
			reach[v] = BFS(g, []PageID{PageID(v)})
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reach[u][v] >= 0 && reach[v][u] >= 0
				if same != mutual {
					t.Logf("seed %d: pages %d,%d: sameSCC=%v mutual=%v", seed, u, v, same, mutual)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
