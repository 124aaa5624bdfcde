package snode

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"snode/internal/coding"
	"snode/internal/metrics"
	"snode/internal/partition"
	"snode/internal/trace"
	"snode/internal/webgraph"
	"snode/internal/workpool"
)

// Modeled repository-scan cost of streaming one supernode's pages and
// links out of the crawl store during encoding (mirrors the partition
// package's per-split scan accounting).
const (
	scanPageBytes = 16
	scanEdgeBytes = 8
)

// encodeFailHook, when non-nil, runs before each supernode encode and
// aborts it on error. Tests use it to prove the encode pipeline shuts
// down cleanly when every worker fails (the producer/worker deadlock
// the streaming assembly replaced).
var encodeFailHook func(s int32) error

// FwdDir and RevDir name the two stores BuildPair writes: S-Node over
// WG and over its transpose WGT.
const (
	FwdDir = "snode.fwd"
	RevDir = "snode.rev"
)

// BuildPair builds the S-Node store of c in dir/FwdDir and, when rev —
// the transpose of c, over the same pages — is not nil, of rev in
// dir/RevDir. It returns the forward store's statistics.
func BuildPair(c, rev *webgraph.Corpus, cfg Config, dir string) (*BuildStats, error) {
	st, err := Build(c, cfg, filepath.Join(dir, FwdDir))
	if err == nil && rev != nil {
		_, err = Build(rev, cfg, filepath.Join(dir, RevDir))
	}
	return st, err
}

// Build computes the partition, constructs the S-Node representation of
// the corpus graph, and writes it (index files plus meta.bin) into dir,
// which is created if missing and may hold an earlier build's files.
func Build(c *webgraph.Corpus, cfg Config, dir string) (*BuildStats, error) {
	return BuildCtx(context.Background(), c, cfg, dir)
}

// BuildCtx is Build with request-scoped context: cancellation stops the
// refinement and encode stages between work items, and a trace carried
// by ctx records per-stage and per-round spans.
func BuildCtx(ctx context.Context, c *webgraph.Corpus, cfg Config, dir string) (*BuildStats, error) {
	start := time.Now()
	// The build-wide knobs flow into the refinement stage unless the
	// caller configured that stage explicitly.
	pc := cfg.Partition
	if pc.Workers == 0 {
		pc.Workers = cfg.BuildWorkers
	}
	if pc.IO == nil {
		pc.IO = cfg.BuildIO
	}
	if pc.Metrics == nil {
		pc.Metrics = cfg.Metrics
	}
	p, err := partition.RefineCtx(ctx, c, pc)
	if err != nil {
		return nil, err
	}
	return BuildFromPartitionCtx(ctx, c, p, cfg, dir, start)
}

// BuildFromPartitionCtx builds the representation from an
// already-computed partition into dir, as Build does, with context,
// tracing, and metrics. Supernode encoding fans out over
// cfg.BuildWorkers while file assembly consumes the encoded blobs
// through a bounded in-order reorder window (workpool.Ordered), so
// assembly overlaps encoding and peak memory holds O(window) encoded
// supernodes instead of all of them. The artifacts are byte-identical
// for every worker count and window size.
func BuildFromPartitionCtx(ctx context.Context, c *webgraph.Corpus, p *partition.Partition, cfg Config, dir string, start time.Time) (*BuildStats, error) {
	if start.IsZero() {
		start = time.Now()
	}
	if cfg.MaxFileSize <= 0 {
		return nil, fmt.Errorf("snode: MaxFileSize must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, span := trace.Start(ctx, "build")
	defer span.End()

	_, ospan := trace.Start(ctx, "build.order")
	m, snOfInternal := layOut(c, p)
	nSN := len(m.SnBase) - 1
	ospan.SetAttr("supernodes", int64(nSN))
	ospan.End()

	// 4. Encode lower-level graphs. Encoding is per-supernode
	// independent, so it fans out across the build workers; assembly
	// consumes the encoded blobs through a bounded in-order reorder
	// window (at most `window` encoded supernodes in flight), appending
	// them strictly in supernode order — the §3.3 linear disk layout
	// (intranode_i followed by its superedges, ascending j) comes out
	// bit-for-bit identical to a sequential build, while peak memory is
	// O(window) instead of O(supernodes).
	ectx, espan := trace.Start(ctx, "build.encode")
	out := newFileWriter(dir, cfg.MaxFileSize)
	superDeg := make([]int, nSN) // out-degree in the supernode graph
	inDeg := make([]int64, nSN)  // superedge in-degree, for Huffman codes

	pool := workpool.New(cfg.BuildWorkers)
	window := 4 * pool.Workers()
	var mEncoded, mSuperedges *metrics.Counter
	if cfg.Metrics != nil {
		mEncoded = cfg.Metrics.Counter("build_supernodes_encoded")
		mSuperedges = cfg.Metrics.Counter("build_superedges")
	}
	encode := func(ctx context.Context, s int) (*encodedSupernode, error) {
		if hook := encodeFailHook; hook != nil {
			if err := hook(int32(s)); err != nil {
				return nil, err
			}
		}
		if cfg.BuildIO != nil {
			// Model streaming this supernode's pages and links out of the
			// crawl repository.
			var edges int64
			for it := m.SnBase[s]; it < m.SnBase[s+1]; it++ {
				edges += int64(len(c.Graph.Out(m.Inv[it])))
			}
			cfg.BuildIO.Scan(ctx, scanPageBytes*int64(m.SnBase[s+1]-m.SnBase[s])+scanEdgeBytes*edges)
		}
		es, err := encodeSupernode(c, m, cfg, snOfInternal, int32(s))
		if err != nil {
			return nil, err
		}
		if mEncoded != nil {
			mEncoded.Inc()
		}
		return es, nil
	}
	assemble := func(s int, es *encodedSupernode) error {
		gid, err := out.addBlob(es.intraBlob, dirEntry{
			Kind: kindIntra, I: int32(s), J: -1, NumLists: m.SnBase[s+1] - m.SnBase[s],
		})
		if err != nil {
			return err
		}
		m.IntraGID = append(m.IntraGID, gid)
		m.SuperOff = append(m.SuperOff, int64(len(m.SuperAdj)))
		for _, sb := range es.supers {
			e := dirEntry{Kind: sb.kind, I: int32(s), J: sb.j, NumLists: sb.numLists}
			gid, err := out.addBlob(sb.blob, e)
			if err != nil {
				return err
			}
			m.SuperAdj = append(m.SuperAdj, sb.j)
			m.SuperGID = append(m.SuperGID, gid)
			superDeg[s]++
			inDeg[sb.j]++
			m.Stats.Superedges++
			if sb.kind == kindSuperNeg {
				m.Stats.NegativeSuperedges++
			} else {
				m.Stats.PositiveSuperedges++
			}
		}
		if mSuperedges != nil {
			mSuperedges.Add(int64(len(es.supers)))
		}
		return nil
	}
	if err := workpool.Ordered(ectx, pool, nSN, window, encode, assemble); err != nil {
		out.close()
		espan.End()
		return nil, err
	}
	m.SuperOff = append(m.SuperOff, int64(len(m.SuperAdj)))
	m.Directory = out.entries
	m.FileSizes = out.sizes()
	if err := out.close(); err != nil {
		return nil, err
	}
	espan.SetAttr("superedges", m.Stats.Superedges)
	espan.End()

	_, fspan := trace.Start(ctx, "build.finalize")
	defer fspan.End()

	// 5. Supernode graph size under the §3.3 encoding: Huffman codes by
	// in-degree for the targets, gamma-coded degrees, plus a 4-byte
	// pointer per vertex and per edge (Figure 10 accounting). The
	// decoded form lives in meta; this computes the size the paper
	// reports.
	for i := range inDeg {
		inDeg[i]++ // smoothing so zero-in-degree supernodes get codes
	}
	huff, err := coding.NewHuffman(inDeg)
	if err != nil {
		return nil, err
	}
	var superBits int64
	for s := 0; s < nSN; s++ {
		superBits += int64(coding.Gamma0Len(uint64(superDeg[s])))
	}
	for _, j := range m.SuperAdj {
		superBits += int64(huff.CodeLen(j))
	}
	m.Stats.Supernodes = nSN
	m.Stats.SupernodeGraphBytes = (superBits+7)/8 + 4*int64(nSN) + 4*int64(len(m.SuperAdj))
	for _, sz := range m.FileSizes {
		m.Stats.IndexFileBytes += sz
	}
	m.Stats.PageIDIndexBytes = 4 * int64(len(m.SnBase))
	for _, d := range m.Domains {
		m.Stats.DomainIndexBytes += int64(len(d)) + 4
	}
	m.Stats.URLSplits = p.URLSplits
	m.Stats.ClusteredSplits = p.ClusteredSplits

	// meta.bin does not hold BuildTime, so that two builds of the same
	// corpus produce byte-identical artifacts (the determinism tests
	// golden-hash every output file); wall time goes only into the
	// returned stats.
	if err := writeMeta(filepath.Join(dir, "meta.bin"), m); err != nil {
		return nil, err
	}
	stats := m.Stats
	stats.BuildTime = time.Since(start)
	return &stats, nil
}

// layOut turns the partition into the representation's page layout:
// the supernode order, the page renumbering in both directions, each
// internal page's supernode, and the domain index.
func layOut(c *webgraph.Corpus, p *partition.Partition) (m *meta, snOfInternal []int32) {
	n := c.Graph.NumPages()

	// 1. Order supernodes by (domain, first page). Page IDs are sorted
	// by (domain, URL), so an element's smallest page ID yields exactly
	// that ordering and keeps each domain's supernodes contiguous.
	order := make([]int, p.NumElements())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return p.Elements[order[a]].Pages[0] < p.Elements[order[b]].Pages[0]
	})

	m = &meta{
		NumPages: int32(n),
		NumEdges: c.Graph.NumEdges(),
		Perm:     make([]int32, n),
		Inv:      make([]int32, n),
		SnBase:   make([]int32, len(order)+1),
	}

	// 2. Renumber pages: supernodes in order, pages within an element in
	// URL order (== ascending external ID).
	next := int32(0)
	snOfInternal = make([]int32, n) // internal page → supernode
	for s, ei := range order {
		m.SnBase[s] = next
		for _, ext := range p.Elements[ei].Pages {
			m.Perm[ext] = next
			m.Inv[next] = ext
			snOfInternal[next] = int32(s)
			next++
		}
	}
	m.SnBase[len(order)] = next

	// 3. Domain index: domains are contiguous over supernodes.
	for s := range order {
		d := c.Pages[m.Inv[m.SnBase[s]]].Domain
		if len(m.Domains) == 0 || m.Domains[len(m.Domains)-1] != d {
			m.Domains = append(m.Domains, d)
			m.DomFirstSN = append(m.DomFirstSN, int32(s))
		}
	}
	m.DomFirstSN = append(m.DomFirstSN, int32(len(order)))
	return m, snOfInternal
}

// encodedSupernode holds one supernode's encoded graphs between the
// parallel encode stage and the sequential assembly stage.
type encodedSupernode struct {
	intraBlob []byte
	supers    []encodedSuper
}

type encodedSuper struct {
	j        int32
	kind     uint8
	numLists int32
	blob     []byte
}

// linkBuckets is one encode worker's scratch for sorting a supernode's
// links by the supernode they point into. Everything in it is flat and
// reused from one supernode to the next, so bucketing allocates nothing
// once the arrays have grown to the largest supernode seen; a bucket's
// lists are sub-slices of ids, its sources a sub-slice of srcs.
type linkBuckets struct {
	slot    []int32      // target supernode → 1 + its index in buckets; 0: not linked to
	buckets []linkBucket // bucket 0 is the supernode itself (the intranode links)
	links   []bucketLink // every link, in (source, target) order
	targets []int32      // the other supernodes linked to, ascending
	srcs    []int32
	ids     []int32
	lists   [][]int32
	intra   [][]int32 // bucket 0 spread over every page, linked or not
}

// linkBucket is the links from one supernode into supernode j: nSrcs
// source pages, ascending, with nIDs targets between them. Its sources
// start at srcs[src0], the list of each at lists[src0], and the lists'
// IDs at ids[id0].
type linkBucket struct {
	j           int32
	last        int32 // the source that linked here most recently
	nSrcs, nIDs int32
	src0, id0   int32
}

// bucketLink is one link after translation: its source page, the bucket
// of its target's supernode and the target's position in that supernode.
type bucketLink struct{ local, bucket, tLocal int32 }

var linkBucketPool = sync.Pool{New: func() any { return new(linkBuckets) }}

// fill buckets supernode s's links: one pass translates and counts them,
// a prefix sum places every bucket in the flat arrays, a second pass over
// the translated links drops each into place. Adjacency lists arrive in
// ascending external-target order, so the local IDs within one list are
// already sorted.
func (lb *linkBuckets) fill(c *webgraph.Corpus, m *meta, snOfInternal []int32, s int32) {
	base := m.SnBase[s]
	size := m.SnBase[s+1] - base
	if nSN := len(m.SnBase) - 1; len(lb.slot) < nSN {
		lb.slot = make([]int32, nSN)
	}
	// Whatever the last supernode left behind goes first, by walking the
	// buckets it used rather than the whole slot array.
	for _, b := range lb.buckets {
		lb.slot[b.j] = 0
	}
	lb.buckets = append(lb.buckets[:0], linkBucket{j: s, last: -1})
	lb.slot[s] = 1
	lb.links = lb.links[:0]
	for local := int32(0); local < size; local++ {
		for _, tExt := range c.Graph.Out(m.Inv[base+local]) {
			tInt := m.Perm[tExt]
			j := snOfInternal[tInt]
			bi := lb.slot[j]
			if bi == 0 {
				lb.buckets = append(lb.buckets, linkBucket{j: j, last: -1})
				bi = int32(len(lb.buckets))
				lb.slot[j] = bi
			}
			b := &lb.buckets[bi-1]
			if b.last != local {
				b.last = local
				b.nSrcs++
			}
			b.nIDs++
			lb.links = append(lb.links, bucketLink{local, bi - 1, tInt - m.SnBase[j]})
		}
	}

	// The second pass counts each bucket up again, from zero to the same
	// totals; on the way the counts are its cursors.
	lb.targets = lb.targets[:0]
	var nSrcs, nIDs int32
	for i := range lb.buckets {
		b := &lb.buckets[i]
		b.src0, b.id0 = nSrcs, nIDs
		nSrcs += b.nSrcs
		nIDs += b.nIDs
		b.nSrcs, b.nIDs, b.last = 0, 0, -1
		if i > 0 {
			lb.targets = append(lb.targets, b.j)
		}
	}
	slices.Sort(lb.targets)
	lb.srcs = slices.Grow(lb.srcs[:0], int(nSrcs))[:nSrcs]
	lb.ids = slices.Grow(lb.ids[:0], int(nIDs))[:nIDs]
	lb.lists = slices.Grow(lb.lists[:0], int(nSrcs))[:nSrcs]

	for _, l := range lb.links {
		b := &lb.buckets[l.bucket]
		if b.last != l.local {
			b.last = l.local
			at := b.src0 + b.nSrcs
			lb.srcs[at] = l.local
			lb.lists[at] = lb.ids[b.id0+b.nIDs : b.id0+b.nIDs]
			b.nSrcs++
		}
		// Within capacity: the list ends where the bucket's next one
		// starts, and the counting pass sized the bucket exactly.
		at := b.src0 + b.nSrcs - 1
		lb.lists[at] = append(lb.lists[at], l.tLocal)
		b.nIDs++
	}

	lb.intra = slices.Grow(lb.intra[:0], int(size))[:size]
	clear(lb.intra)
	srcs, lists, _ := lb.bucket(0)
	for k, local := range srcs {
		lb.intra[local] = lists[k]
	}
}

// bucket returns bucket i's source pages, the target list of each, and
// the number of links in all of them.
func (lb *linkBuckets) bucket(i int32) (srcs []int32, lists [][]int32, edges int64) {
	b := &lb.buckets[i]
	return lb.srcs[b.src0 : b.src0+b.nSrcs], lb.lists[b.src0 : b.src0+b.nSrcs], int64(b.nIDs)
}

// encodeSupernode buckets supernode s's links into the intranode graph
// plus one graph per target supernode, makes the §2 pos/neg choice for
// each (it counts edges, not bytes) and encodes them. It touches only immutable build state (graph,
// permutation, SnBase), so it is safe to run concurrently per supernode.
func encodeSupernode(c *webgraph.Corpus, m *meta, cfg Config, snOfInternal []int32, s int32) (*encodedSupernode, error) {
	size := m.SnBase[s+1] - m.SnBase[s]
	lb := linkBucketPool.Get().(*linkBuckets)
	defer linkBucketPool.Put(lb)
	lb.fill(c, m, snOfInternal, s)

	es := &encodedSupernode{}
	var err error
	if es.intraBlob, err = encodePayload(nil, kindIntra, nil, lb.intra, size, size, cfg.Refenc); err != nil {
		return nil, err
	}
	es.supers = make([]encodedSuper, 0, len(lb.targets))
	for _, j := range lb.targets {
		srcs, lists, edges := lb.bucket(lb.slot[j] - 1)
		njSize := m.SnBase[j+1] - m.SnBase[j]
		sb := encodedSuper{j: j, kind: kindSuperPos, numLists: int32(len(srcs))}
		if negEdges := int64(size)*int64(njSize) - edges; !cfg.DisableNegative && negEdges < edges {
			// Negative graph: complement lists for every page of Ni.
			comps := make([][]int32, size)
			si := 0
			for local := int32(0); local < size; local++ {
				var pos []int32
				if si < len(srcs) && srcs[si] == local {
					pos = lists[si]
					si++
				}
				comps[local] = complement(pos, njSize)
			}
			sb.kind, sb.numLists = kindSuperNeg, size
			srcs, lists = nil, comps
		}
		if sb.blob, err = encodePayload(nil, sb.kind, srcs, lists, size, njSize, cfg.Refenc); err != nil {
			return nil, err
		}
		es.supers = append(es.supers, sb)
	}
	return es, nil
}

// fileWriter appends byte-aligned encoded graphs to a sequence of index
// files, each at most maxSize bytes, and records directory entries.
type fileWriter struct {
	dir     string
	maxSize int64
	entries []dirEntry

	cur     *os.File
	bw      *bufio.Writer
	curIdx  int32
	curSize int64
	allSize []int64
	err     error
}

func newFileWriter(dir string, maxSize int64) *fileWriter {
	return &fileWriter{dir: dir, maxSize: maxSize, curIdx: -1}
}

func indexFileName(dir string, idx int32) string {
	return filepath.Join(dir, fmt.Sprintf("graphs.%03d", idx))
}

func (fw *fileWriter) roll() error {
	if fw.cur != nil {
		if err := fw.bw.Flush(); err != nil {
			return err
		}
		if err := fw.cur.Close(); err != nil {
			return err
		}
		fw.allSize = append(fw.allSize, fw.curSize)
	}
	fw.curIdx++
	f, err := os.Create(indexFileName(fw.dir, fw.curIdx))
	if err != nil {
		return err
	}
	fw.cur = f
	fw.bw = bufio.NewWriterSize(f, 1<<20)
	fw.curSize = 0
	return nil
}

// addBlob writes an encoded graph as the next entry and returns its
// GraphID. A graph always lives entirely within one file (§3.3); files
// roll when the current one would exceed maxSize.
func (fw *fileWriter) addBlob(buf []byte, e dirEntry) (GraphID, error) {
	if fw.cur == nil || (fw.curSize > 0 && fw.curSize+int64(len(buf)) > fw.maxSize) {
		if err := fw.roll(); err != nil {
			return 0, err
		}
	}
	e.File = fw.curIdx
	e.Offset = fw.curSize
	e.NumBytes = int32(len(buf))
	if _, err := fw.bw.Write(buf); err != nil {
		return 0, err
	}
	fw.curSize += int64(len(buf))
	fw.entries = append(fw.entries, e)
	return GraphID(len(fw.entries) - 1), nil
}

func (fw *fileWriter) sizes() []int64 {
	out := append([]int64(nil), fw.allSize...)
	if fw.cur != nil {
		out = append(out, fw.curSize)
	}
	return out
}

func (fw *fileWriter) close() error {
	if fw.cur == nil {
		return nil
	}
	if err := fw.bw.Flush(); err != nil {
		return err
	}
	return fw.cur.Close()
}
