package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

var (
	testCrawl *synth.Crawl
	testRepo  *repo.Repository
	testRoots = map[int]string{}
	// fixtureDir holds the package's shared fixtures (the reference
	// repository under "ref", one dataset per K under "k<K>"); TestMain
	// removes it.
	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "shard-test-*")
	if err != nil {
		log.Fatal(err)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func getCrawl(t testing.TB) *synth.Crawl {
	t.Helper()
	if testCrawl == nil {
		c, err := synth.Generate(synth.DefaultConfig(6000))
		if err != nil {
			t.Fatal(err)
		}
		testCrawl = c
	}
	return testCrawl
}

// getSingleNode builds the reference single-node repository.
func getSingleNode(t testing.TB) *repo.Repository {
	t.Helper()
	if testRepo != nil {
		return testRepo
	}
	crawl := getCrawl(t)
	opt := repo.DefaultOptions(filepath.Join(fixtureDir, "ref"))
	opt.Schemes = []string{repo.SchemeSNode}
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	testRepo = r
	return r
}

// getRoot builds (once) a K-shard partition of the shared crawl.
func getRoot(t testing.TB, k int) string {
	t.Helper()
	if root, ok := testRoots[k]; ok {
		return root
	}
	crawl := getCrawl(t)
	root := filepath.Join(fixtureDir, "k"+strconv.Itoa(k))
	if _, err := Build(crawl, k, root, snode.DefaultConfig()); err != nil {
		t.Fatalf("Build K=%d: %v", k, err)
	}
	testRoots[k] = root
	return root
}

func openAll(t *testing.T, root string, k int) []*ServingShard {
	t.Helper()
	shards := make([]*ServingShard, k)
	for i := 0; i < k; i++ {
		s, err := OpenServing(root, i, 16<<20, iosim.Model2002())
		if err != nil {
			t.Fatalf("OpenServing %d: %v", i, err)
		}
		t.Cleanup(func() { s.Close() })
		shards[i] = s
	}
	return shards
}

func TestAssignCoversAndBalances(t *testing.T) {
	crawl := getCrawl(t)
	pages := crawl.Corpus.Pages
	for _, k := range []int{1, 2, 4, 7} {
		runs, err := Assign(pages, k)
		if err != nil {
			t.Fatal(err)
		}
		load := make([]int, k)
		covered := 0
		for _, r := range runs {
			if int(r.Start) != covered {
				t.Fatalf("K=%d: run starts at %d, want %d", k, r.Start, covered)
			}
			covered += int(r.Count)
			load[r.Shard] += int(r.Count)
			// Whole domains only: a run boundary never splits a domain.
			if covered < len(pages) && pages[covered-1].Domain == pages[covered].Domain {
				t.Fatalf("K=%d: run boundary at %d splits domain %q", k, covered, pages[covered].Domain)
			}
		}
		if covered != len(pages) {
			t.Fatalf("K=%d: runs cover %d of %d pages", k, covered, len(pages))
		}
		min, max := load[0], load[0]
		for _, l := range load[1:] {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		// Greedy LPT bound: domains are indivisible, so the spread can
		// never beat the largest domain, but it must not exceed it.
		largest := 0
		for i := 0; i < len(pages); {
			j := i
			for j < len(pages) && pages[j].Domain == pages[i].Domain {
				j++
			}
			if j-i > largest {
				largest = j - i
			}
			i = j
		}
		if k > 1 && max-min > largest {
			t.Errorf("K=%d: shard loads %v spread %d exceeds largest domain %d",
				k, load, max-min, largest)
		}
	}
}

func TestBoundaryRoundTrip(t *testing.T) {
	adj := map[webgraph.PageID][]webgraph.PageID{
		0:    {5, 9, 1000},
		7:    {2},
		4242: {0, 1, 2, 4243},
	}
	path := filepath.Join(t.TempDir(), "b.fwd")
	if err := WriteBoundary(path, adj); err != nil {
		t.Fatal(err)
	}
	b, err := OpenBoundary(path, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumEdges() != 8 || b.NumSources() != 3 {
		t.Fatalf("edges %d sources %d, want 8/3", b.NumEdges(), b.NumSources())
	}
	for src, want := range adj {
		got := b.Out(src)
		if len(got) != len(want) {
			t.Fatalf("src %d: %v, want %v", src, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("src %d: %v, want %v", src, got, want)
			}
		}
	}
	if b.Out(12345) != nil {
		t.Fatal("unknown source returned edges")
	}
}

func TestManifestRoundTripAndShardOf(t *testing.T) {
	root := getRoot(t, 4)
	m, err := LoadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	crawl := getCrawl(t)
	pages := crawl.Corpus.Pages
	for p := 0; p < len(pages); p++ {
		s := m.ShardOf(webgraph.PageID(p))
		if s < 0 || s >= m.NumShards {
			t.Fatalf("page %d: shard %d", p, s)
		}
		if p > 0 && pages[p-1].Domain == pages[p].Domain &&
			s != m.ShardOf(webgraph.PageID(p-1)) {
			t.Fatalf("domain %q split across shards at page %d", pages[p].Domain, p)
		}
	}
	if m.ShardOf(-1) != -1 || m.ShardOf(webgraph.PageID(len(pages))) != -1 {
		t.Fatal("out-of-range pages resolved to a shard")
	}
	// Tampering with contents must invalidate the stamp.
	m.Shards[0].IntraEdges++
	if m.Version == m.stamp() {
		t.Fatal("version stamp did not change with contents")
	}
}

// TestMergedAdjacencyMatchesFullGraph is the core shard invariant: for
// every page, the owning shard's merged store (intra S-Node + fwd
// boundary) returns exactly the full graph's adjacency, and the rev
// merged store exactly the transpose's.
func TestMergedAdjacencyMatchesFullGraph(t *testing.T) {
	crawl := getCrawl(t)
	g := crawl.Corpus.Graph
	gt := g.Transpose()
	for _, k := range []int{1, 2, 4} {
		shards := openAll(t, getRoot(t, k), k)
		m := shards[0].Manifest
		intraEdges, boundaryEdges := int64(0), int64(0)
		for _, e := range m.Shards {
			intraEdges += e.IntraEdges
			boundaryEdges += e.BoundaryFwdEdges
		}
		if intraEdges+boundaryEdges != g.NumEdges() {
			t.Fatalf("K=%d: %d intra + %d boundary != %d total edges",
				k, intraEdges, boundaryEdges, g.NumEdges())
		}
		for p := webgraph.PageID(0); int(p) < g.NumPages(); p++ {
			sh := shards[m.ShardOf(p)]
			for dir, pair := range map[string]struct {
				st interface {
					Out(webgraph.PageID, []webgraph.PageID) ([]webgraph.PageID, error)
				}
				want []webgraph.PageID
			}{
				"fwd": {sh.Repo.Fwd[repo.SchemeSNode], g.Out(p)},
				"rev": {sh.Repo.Rev[repo.SchemeSNode], gt.Out(p)},
			} {
				got, err := pair.st.Out(p, nil)
				if err != nil {
					t.Fatalf("K=%d %s Out(%d): %v", k, dir, p, err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if len(got) != len(pair.want) {
					t.Fatalf("K=%d %s page %d: %d edges, want %d", k, dir, p, len(got), len(pair.want))
				}
				for i := range pair.want {
					if got[i] != pair.want[i] {
						t.Fatalf("K=%d %s page %d edge %d: %d, want %d", k, dir, p, i, got[i], pair.want[i])
					}
				}
			}
		}
	}
}

// TestShardedQueriesMatchSingleNode is the in-process golden test: all
// six Table 3 queries, executed as owned-restricted partials on each
// opened shard and merged, must reproduce the single-node rows (the
// HTTP-level twin lives in internal/router).
func TestShardedQueriesMatchSingleNode(t *testing.T) {
	ref := getSingleNode(t)
	refEng, err := query.New(ref, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		shards := openAll(t, getRoot(t, k), k)
		engines := make([]*query.Engine, k)
		for i, sh := range shards {
			e, err := query.New(sh.Repo, repo.SchemeSNode)
			if err != nil {
				t.Fatal(err)
			}
			e.SetOwner(sh.Owns)
			engines[i] = e
		}
		for _, q := range query.All() {
			want, err := refEng.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("single-node Q%d: %v", q, err)
			}
			var parts [][]query.PartialRow
			for i, e := range engines {
				p, err := e.RunPartial(context.Background(), q)
				if err != nil {
					t.Fatalf("K=%d shard %d Q%d: %v", k, i, q, err)
				}
				parts = append(parts, p.Rows)
			}
			got := query.MergePartials(q, parts)
			if len(got) != len(want.Rows) {
				t.Fatalf("K=%d Q%d: %d merged rows, want %d\n got: %v\nwant: %v",
					k, q, len(got), len(want.Rows), got, want.Rows)
			}
			for i := range want.Rows {
				if got[i].Key != want.Rows[i].Key {
					t.Fatalf("K=%d Q%d row %d: key %q, want %q", k, q, i, got[i].Key, want.Rows[i].Key)
				}
				if diff := math.Abs(got[i].Value - want.Rows[i].Value); diff > 1e-9*math.Max(1, math.Abs(want.Rows[i].Value)) {
					t.Fatalf("K=%d Q%d row %d (%s): value %v, want %v",
						k, q, i, got[i].Key, got[i].Value, want.Rows[i].Value)
				}
			}
		}
	}
}

// TestShardBuildCarriesCodec pins that a non-default codec flows
// through the sharded build: every per-shard S-Node store records the
// requested codec in its meta, and the stores stay row-identical to a
// default-codec sharded build of the same crawl.
func TestShardBuildCarriesCodec(t *testing.T) {
	const k = 3
	crawl, err := synth.Generate(synth.DefaultConfig(1500))
	if err != nil {
		t.Fatal(err)
	}
	build := func(codec string) string {
		root := t.TempDir()
		cfg := snode.DefaultConfig()
		cfg.Codec = codec
		if _, err := Build(crawl, k, root, cfg); err != nil {
			t.Fatalf("Build codec=%q: %v", codec, err)
		}
		return root
	}
	paperRoot := build("")
	logRoot := build(snode.CodecLog)

	for s := 0; s < k; s++ {
		for _, sub := range []string{"snode.fwd", "snode.rev"} {
			logDir := filepath.Join(logRoot, "shard-"+strconv.Itoa(s), sub)
			logRep, err := snode.Open(logDir, 1<<20, iosim.Model2002())
			if err != nil {
				t.Fatalf("shard %d %s: %v", s, sub, err)
			}
			cs := logRep.BuildStats().Codecs
			if len(cs) != 1 || cs[0].Name != snode.CodecLog {
				t.Fatalf("shard %d %s: codec composition %+v, want pure log", s, sub, cs)
			}

			paperRep, err := snode.Open(
				filepath.Join(paperRoot, "shard-"+strconv.Itoa(s), sub), 1<<20, iosim.Model2002())
			if err != nil {
				t.Fatal(err)
			}
			want, err := paperRep.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			got, err := logRep.DecodeAll()
			if err != nil {
				t.Fatalf("shard %d %s decode: %v", s, sub, err)
			}
			for p := int32(0); p < int32(logRep.NumPages()); p++ {
				a, b := want.Out(p), got.Out(p)
				if len(a) != len(b) {
					t.Fatalf("shard %d %s page %d: %d vs %d edges", s, sub, p, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("shard %d %s page %d edge %d differs", s, sub, p, i)
					}
				}
			}
			paperRep.Close()
			logRep.Close()
		}
	}
}

// hashTree is the SHA-256 of every file under root: relative path,
// length and bytes, in walk (lexical) order.
func hashTree(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(buf))
		h.Write(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDatasetBytesAreStable pins the dataset format. The manifest
// version and the hash of every artifact at K = 1, 2 and 4 are the ones
// the build wrote before K=1 became the corpus graph taken as it
// stands (taken at commit f066cb7): a reordered edge, a changed field or
// a format bump fails here. And the one shard of a K=1 dataset holds
// what repo.Build writes for the same corpus, file for file, which is
// what lets a server open either.
func TestDatasetBytesAreStable(t *testing.T) {
	for k, want := range map[int][2]string{
		1: {"c7096173a2b010dc", "3a8a3a125f7bf1842634426a4f3c7e17e47d7cd57694fba14ec669e39d075242"},
		2: {"05330b8a3b4efb45", "824ff94d5a1a3b0f1b7ec6c1b2e66e1460fb6141fd19493f0ebc677c77fcc976"},
		4: {"b1ccf01a21567466", "5f05ae8dfaa76c28d7eca218f55f28afe9ec59d87ebc4f8d3e84c73fa048b6ce"},
	} {
		root := getRoot(t, k)
		m, err := LoadManifest(root)
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != want[0] {
			t.Errorf("K=%d: manifest version %s, want %s", k, m.Version, want[0])
		}
		if got := hashTree(t, root); got != want[1] {
			t.Errorf("K=%d: artifact tree hashes to %s, want %s", k, got, want[1])
		}
	}
	getSingleNode(t)
	for _, sub := range []string{"snode.fwd", "snode.rev"} {
		got := hashTree(t, filepath.Join(getRoot(t, 1), "shard-0", sub))
		if want := hashTree(t, filepath.Join(fixtureDir, "ref", sub)); got != want {
			t.Errorf("K=1 shard-0/%s differs from repo.Build's %s", sub, sub)
		}
	}
}

// uvarints concatenates the values' uvarint encodings.
func uvarints(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// TestHostileArtifactsAreRefused: every reader a server start goes
// through answers bytes no build wrote with ErrCorrupt — never a panic,
// never a store. The named cases are the ones that used to get through:
// a PageRank length that wraps the size check, a boundary degree that
// sizes an allocation, gaps that wrap the ID sum or walk out of the
// page range, a repeated target. Then every strict prefix of a valid
// file, and manifests whose paths leave the dataset directory.
func TestHostileArtifactsAreRefused(t *testing.T) {
	const numPages = 100
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	boundary := func(vs ...uint64) []byte {
		return append([]byte(boundaryMagic), uvarints(append([]uint64{boundaryVersion}, vs...)...)...)
	}
	validBoundary := boundary(2, 1, 3, 6, 1, 93, 41, 1, 100) // 0:[5 6 99] 40:[99]
	validRank := append(uvarints(numPages), make([]byte, 8*numPages)...)
	open := map[string]func() error{
		"boundary": func() error { _, err := OpenBoundary(path, numPages); return err },
		"pagerank": func() error { _, err := readPageRank(path, numPages); return err },
	}
	for _, reader := range []string{"boundary", "pagerank"} {
		valid := map[string][]byte{"boundary": validBoundary, "pagerank": validRank}[reader]
		if err := os.WriteFile(path, valid, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := open[reader](); err != nil {
			t.Fatalf("%s: the valid file is refused: %v", reader, err)
		}
	}
	cases := []struct {
		name, reader string
		bytes        []byte
	}{
		{"length wraps the size check", "pagerank", append(uvarints(1<<61|1), make([]byte, 8)...)},
		{"length is not the manifest's", "pagerank", append(uvarints(numPages-1), make([]byte, 8*(numPages-1))...)},
		{"trailing bytes", "pagerank", append(append([]byte(nil), validRank...), 0)},
		{"degree sizes an allocation", "boundary", boundary(1, 1, 1<<62)},
		{"source count beyond the pages", "boundary", boundary(numPages + 1)},
		{"gap wraps the ID sum", "boundary", boundary(1, 1, 2, 6, 1<<32)},
		{"gap wraps to a negative ID", "boundary", boundary(1, 1, 2, 6, 1<<63)},
		{"repeated target", "boundary", boundary(1, 1, 2, 6, 0)},
		{"target beyond the pages", "boundary", boundary(1, 1, 1, numPages+1)},
		{"source beyond the pages", "boundary", boundary(1, numPages+1, 0)},
		{"sources do not ascend", "boundary", boundary(2, 6, 0, 0, 0)},
		{"trailing bytes", "boundary", append(append([]byte(nil), validBoundary...), 0)},
		{"wrong magic", "boundary", []byte("SNBX\x01\x00")},
		{"future version", "boundary", append([]byte(boundaryMagic), uvarints(boundaryVersion+1, 0)...)},
	}
	for n := 0; n < len(validBoundary); n++ {
		cases = append(cases, struct {
			name, reader string
			bytes        []byte
		}{fmt.Sprintf("truncated to %d bytes", n), "boundary", validBoundary[:n]})
	}
	for n := 0; n < len(validRank); n++ {
		cases = append(cases, struct {
			name, reader string
			bytes        []byte
		}{fmt.Sprintf("truncated to %d bytes", n), "pagerank", validRank[:n]})
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := open[c.reader](); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s, %s: err = %v, want ErrCorrupt", c.reader, c.name, err)
		}
	}

	// A manifest's paths are joined onto the root and its version stamp
	// does not cover them.
	good, err := os.ReadFile(filepath.Join(getRoot(t, 2), ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, swap := range [][2]string{
		{`"dir": "shard-0"`, `"dir": "../shard-0"`},
		{`"boundary_fwd": "shard-0/boundary.fwd"`, `"boundary_fwd": "/etc/passwd"`},
		{`"boundary_rev": "shard-1/boundary.rev"`, `"boundary_rev": "shard-1/../../boundary.rev"`},
		{`"meta": "meta.bin"`, `"meta": ""`},
		{`"pagerank": "pagerank.bin"`, `"pagerank": "../pagerank.bin"`},
	} {
		bad := bytes.Replace(good, []byte(swap[0]), []byte(swap[1]), 1)
		if bytes.Equal(bad, good) {
			t.Fatalf("manifest has no %s to replace", swap[0])
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(dir); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "leaves the dataset") {
			t.Errorf("manifest with %s: err = %v, want ErrCorrupt naming the path", swap[1], err)
		}
	}
}
