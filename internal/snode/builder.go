package snode

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// Build computes the partition, constructs the S-Node representation of
// the corpus graph, and writes it (index files plus meta.bin) into dir,
// which must exist and be empty or reusable.
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

// BuildFromPartition builds the representation from an already-computed
// partition (used by ablation benches that vary the partition).
func BuildFromPartition(c *webgraph.Corpus, p *partition.Partition, cfg Config, dir string, start time.Time) (*BuildStats, error) {
	return BuildFromPartitionCtx(context.Background(), c, p, cfg, dir, start)
}

// BuildFromPartitionCtx builds the representation from a partition with
// context, tracing, and metrics. Supernode encoding fans out over
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
	ctx, span := trace.Start(ctx, "build")
	defer span.End()
	n := c.Graph.NumPages()

	// 1. Order supernodes by (domain, first page). Page IDs are sorted
	// by (domain, URL), so an element's smallest page ID yields exactly
	// that ordering and keeps each domain's supernodes contiguous.
	_, ospan := trace.Start(ctx, "build.order")
	order := make([]int, p.NumElements())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return p.Elements[order[a]].Pages[0] < p.Elements[order[b]].Pages[0]
	})

	m := &meta{
		NumPages: int32(n),
		NumEdges: c.Graph.NumEdges(),
		Perm:     make([]int32, n),
		Inv:      make([]int32, n),
		SnBase:   make([]int32, len(order)+1),
	}

	// 2. Renumber pages: supernodes in order, pages within an element in
	// URL order (== ascending external ID).
	next := int32(0)
	snOfInternal := make([]int32, n) // internal page → supernode
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
	ospan.SetAttr("supernodes", int64(len(order)))
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
	nSN := len(order)
	superDeg := make([]int, nSN) // out-degree in the supernode graph
	inDeg := make([]int64, nSN)  // superedge in-degree, for Huffman codes

	pool := workpool.New(cfg.BuildWorkers)
	window := cfg.ReorderWindow
	if window <= 0 {
		window = 4 * pool.Workers()
	}
	var mEncoded, mSuperedges *metrics.Counter
	if cfg.Metrics != nil {
		mEncoded = cfg.Metrics.Counter("build_supernodes_encoded")
		mSuperedges = cfg.Metrics.Counter("build_superedges")
	}
	cd, err := codecByName(cfg.Codec)
	if err != nil {
		out.close()
		espan.End()
		return nil, err
	}
	agg := CodecBuildStat{ID: cd.ID(), Name: cd.Name()}
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
		es, err := encodeSupernode(c, m, cfg, cd, snOfInternal, int32(s))
		if err != nil {
			return nil, err
		}
		if mEncoded != nil {
			mEncoded.Inc()
		}
		return es, nil
	}
	assemble := func(s int, es *encodedSupernode) error {
		agg.Supernodes++
		gid, err := out.addBlob(es.intraBlob, dirEntry{
			Kind: kindIntra, I: int32(s), J: -1, NumLists: m.SnBase[s+1] - m.SnBase[s],
			Codec: cd.ID(),
		})
		if err != nil {
			return err
		}
		agg.Graphs++
		agg.Bytes += int64(len(es.intraBlob))
		agg.Edges += es.intraEdges
		m.IntraGID = append(m.IntraGID, gid)
		m.SuperOff = append(m.SuperOff, int64(len(m.SuperAdj)))
		for _, sb := range es.supers {
			e := dirEntry{Kind: sb.kind, I: int32(s), J: sb.j, NumLists: sb.numLists, Codec: cd.ID()}
			gid, err := out.addBlob(sb.blob, e)
			if err != nil {
				return err
			}
			agg.Graphs++
			agg.Bytes += int64(len(sb.blob))
			agg.Edges += sb.edges
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
	if agg.Supernodes > 0 {
		m.Stats.Codecs = []CodecBuildStat{agg}
	}
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

	// meta.bin is written with BuildTime zero so that two builds of the
	// same corpus produce byte-identical artifacts (the determinism
	// tests golden-hash every output file); wall time goes only into the
	// returned stats.
	if err := writeMeta(filepath.Join(dir, "meta.bin"), m); err != nil {
		return nil, err
	}
	stats := m.Stats
	stats.BuildTime = time.Since(start)
	return &stats, nil
}

// encodedSupernode holds one supernode's encoded graphs between the
// parallel encode stage and the sequential assembly stage.
type encodedSupernode struct {
	intraBlob  []byte
	intraEdges int64
	supers     []encodedSuper
}

type encodedSuper struct {
	j        int32
	kind     uint8
	numLists int32
	edges    int64 // stored (list) edges, for the codec stats
	blob     []byte
}

// encodeSupernode buckets supernode s's links into the intranode graph
// plus one graph per target supernode, makes the §2 pos/neg choice for
// each (it counts edges, not bytes, so it is codec-independent) and
// encodes them under cd. It touches only immutable build state (graph,
// permutation, SnBase), so it is safe to run concurrently per supernode.
func encodeSupernode(c *webgraph.Corpus, m *meta, cfg Config, cd Codec, snOfInternal []int32, s int32) (*encodedSupernode, error) {
	base := m.SnBase[s]
	size := m.SnBase[s+1] - base

	// Bucket this supernode's links: intranode + per-target-supernode.
	intra := make([][]int32, size)
	buckets := map[int32][][]int32{} // j → per-source lists (sparse)
	bucketSrcs := map[int32][]int32{}
	var jOrder []int32
	es := &encodedSupernode{}
	for local := int32(0); local < size; local++ {
		ext := m.Inv[base+local]
		for _, tExt := range c.Graph.Out(ext) {
			tInt := m.Perm[tExt]
			j := snOfInternal[tInt]
			tLocal := tInt - m.SnBase[j]
			if j == s {
				intra[local] = append(intra[local], tLocal)
				es.intraEdges++
				continue
			}
			if _, ok := buckets[j]; !ok {
				jOrder = append(jOrder, j)
			}
			ls := bucketSrcs[j]
			if len(ls) == 0 || ls[len(ls)-1] != local {
				bucketSrcs[j] = append(ls, local)
				buckets[j] = append(buckets[j], nil)
			}
			bl := buckets[j]
			bl[len(bl)-1] = append(bl[len(bl)-1], tLocal)
		}
	}
	// Adjacency lists arrive in ascending external-target order; local
	// IDs within one bucket are therefore already sorted.

	var err error
	if es.intraBlob, err = encodePayload(cd, nil, kindIntra, nil, intra, size, size, cfg.Refenc); err != nil {
		return nil, err
	}
	sort.Slice(jOrder, func(a, b int) bool { return jOrder[a] < jOrder[b] })
	for _, j := range jOrder {
		srcs, lists := bucketSrcs[j], buckets[j]
		njSize := m.SnBase[j+1] - m.SnBase[j]
		sb := encodedSuper{j: j, kind: kindSuperPos, numLists: int32(len(srcs))}
		for _, l := range lists {
			sb.edges += int64(len(l))
		}
		if negEdges := int64(size)*int64(njSize) - sb.edges; !cfg.DisableNegative && negEdges < sb.edges {
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
			sb.kind, sb.numLists, sb.edges = kindSuperNeg, size, negEdges
			srcs, lists = nil, comps
		}
		if sb.blob, err = encodePayload(cd, nil, sb.kind, srcs, lists, size, njSize, cfg.Refenc); err != nil {
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
