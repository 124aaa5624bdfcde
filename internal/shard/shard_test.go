package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"snode/internal/iosim"
	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/textindex"
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
// version and the hash of every artifact at K = 1, 2 and 4 were taken
// when the manifest became format 2 and meta.bin v3 (the index files,
// boundary files and pagerank.bin byte-identical to the build before
// it): a reordered edge, a changed field or a format bump fails here. And the one shard of a K=1 dataset holds
// what repo.Build writes for the same corpus, file for file, which is
// what lets a server open either.
func TestDatasetBytesAreStable(t *testing.T) {
	for k, want := range map[int][2]string{
		1: {"f29724f958071891", "1dd40827f14039442b4667f9f794c8041667da1879343251cb85611f470433f6"},
		2: {"8f083ae3bb5521d0", "6d249e46066b294557f3c96843bce80d5b195d477e47ca9b91b6646f26264d38"},
		4: {"894c3a46cf407123", "1b0650e24ff6b346d63dace21ab2d831ed1bd3f9e9dcd516ffc0411582f348f6"},
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

// TestFormatOneDatasetIsRefused: a dataset whose manifest is stamped
// format 1, whose meta.bin held an empty adjacency list a page and a
// crawl order, is refused at OpenServing by its format, before any
// artifact is opened: the directory holds the manifest alone.
func TestFormatOneDatasetIsRefused(t *testing.T) {
	m, err := LoadManifest(getRoot(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.FormatVersion = 1
	m.Version = m.stamp()
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenServing(dir, 0, 1<<20, iosim.Model2002())
	if err == nil || !strings.Contains(err.Error(), "manifest format 1") || !strings.Contains(err.Error(), "rebuild the dataset") {
		t.Fatalf("a format-1 dataset: err = %v, want it refused by its format", err)
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

// TestWarmMergedNeighborsAllocatesNothing: a warm Neighbors call on a
// shard's merged store, over owned pages many of which have boundary
// rows, allocates nothing, unfiltered or under a domain filter: the list
// that joins a page's two parts is recycled, not grown afresh per call.
func TestWarmMergedNeighborsAllocatesNothing(t *testing.T) {
	sh, err := OpenServing(getRoot(t, 2), 0, 64<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	m := sh.Repo.Fwd[repo.SchemeSNode].(*MergedStore)
	var pages []webgraph.PageID
	withRows := 0
	for p := webgraph.PageID(0); int(p) < sh.Manifest.NumPages && len(pages) < 300; p++ {
		if sh.Owns(p) {
			pages = append(pages, p)
			if len(m.boundary.Out(p)) > 0 {
				withRows++
			}
		}
	}
	if withRows < 10 {
		t.Fatalf("%d of %d owned pages have boundary rows; the fixture exercises nothing", withRows, len(pages))
	}
	visit := func(webgraph.PageID, []webgraph.PageID) error { return nil }
	var edu []store.DomainRange
	for d := range sh.Repo.EduDomains("") {
		edu = append(edu, sh.Repo.Domains[d])
	}
	for name, f := range map[string]*store.Filter{"unfiltered": nil, "edu domains": store.NewFilter(edu...)} {
		if err := m.Neighbors(context.Background(), pages, f, visit); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := m.Neighbors(context.Background(), pages, f, visit); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: a warm Neighbors call over %d pages (%d with boundary rows) allocates %.0f times; want 0", name, len(pages), withRows, allocs)
		}
	}
}

// TestServingShardHoldsPageMetaOnce: an opened shard keeps one Domain
// string per domain, its URLs back to back in one block, no term lists
// (the text index holds them), and an index that answers every term of
// the source crawl as one built over the crawl does.
func TestServingShardHoldsPageMetaOnce(t *testing.T) {
	sh, err := OpenServing(getRoot(t, 2), 1, 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	pages := sh.NavRepo.Corpus.Pages
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	for i, pm := range pages {
		if pm.Terms != nil {
			t.Fatalf("page %d keeps %d terms", i, len(pm.Terms))
		}
		if i == 0 {
			continue
		}
		prev := pages[i-1]
		if pm.Domain == prev.Domain && addr(pm.Domain) != addr(prev.Domain) {
			t.Fatalf("pages %d and %d of %s hold two copies of its name", i-1, i, pm.Domain)
		}
		if addr(pm.URL) != addr(prev.URL)+uintptr(len(prev.URL)) {
			t.Fatalf("page %d's URL does not follow page %d's in one block", i, i-1)
		}
	}
	crawl := getCrawl(t)
	ref := textindex.Build(crawl.Corpus.Pages)
	if got, want := sh.Repo.Text.NumTerms(), ref.NumTerms(); got != want {
		t.Fatalf("the shard's index has %d terms, the crawl's %d", got, want)
	}
	for _, pm := range crawl.Corpus.Pages {
		for _, term := range pm.Terms {
			if got, want := sh.Repo.Text.Lookup(term), ref.Lookup(term); !slices.Equal(got, want) {
				t.Fatalf("Lookup(%q) = %v, the crawl's index %v", term, got, want)
			}
		}
	}
}
