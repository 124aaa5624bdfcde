// Package flatfile implements the paper's baseline "uncompressed files"
// representation: adjacency lists stored as raw little-endian int32
// arrays in a single data file, with an in-memory page-ID offset index
// and domain index (§4: "a portion of this space was used to
// permanently hold the domain and page ID indexes in memory"), and a
// chunked LRU read cache standing in for file buffers.
package flatfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"snode/internal/coding"
	"snode/internal/iosim"
	"snode/internal/store"
	"snode/internal/webgraph"
)

const chunkSize = 8 << 10

// Build writes the representation into dir (adj.dat). layout gives the
// physical record order — a repository stores adjacency lists in the
// order pages were crawled, NOT in page-ID order, so pages with nearby
// IDs (same domain) are scattered on disk. nil means ID order.
func Build(c *webgraph.Corpus, dir string, layout []webgraph.PageID) error {
	g := c.Graph
	if layout == nil {
		layout = make([]webgraph.PageID, g.NumPages())
		for i := range layout {
			layout[i] = webgraph.PageID(i)
		}
	}
	if len(layout) != g.NumPages() {
		return fmt.Errorf("flatfile: layout covers %d of %d pages", len(layout), g.NumPages())
	}
	return coding.WriteFile(filepath.Join(dir, "adj.dat"), func(w *coding.Writer) error {
		for _, p := range layout {
			adj := g.Out(p)
			w.U32(uint32(len(adj)))
			for _, t := range adj {
				w.U32(uint32(t))
			}
		}
		return nil
	})
}

// Rep is an opened flat-file representation.
type Rep struct {
	n       int
	file    *iosim.File
	acc     *iosim.Accountant
	offsets []int64 // byte offset of each page's record (layout order)
	recLen  []int32 // record length per page
	total   int64   // data file size
	domains store.DomainRanges
	pages   []webgraph.PageMeta

	cache *iosim.LRU[[]byte] // chunks of the data file, by chunk number
	loads int64
}

// Open maps the representation for querying. The page-ID offset index
// is recomputed from the corpus degrees and layout (equivalently it
// could be stored; either way it is memory-resident, as in the paper).
// layout must match the one passed to Build.
func Open(c *webgraph.Corpus, dir string, layout []webgraph.PageID, cacheBudget int64, model iosim.Model) (*Rep, error) {
	acc := iosim.NewAccountant(model)
	f, err := acc.Open(filepath.Join(dir, "adj.dat"))
	if err != nil {
		return nil, err
	}
	g := c.Graph
	n := g.NumPages()
	if layout == nil {
		layout = make([]webgraph.PageID, n)
		for i := range layout {
			layout[i] = webgraph.PageID(i)
		}
	}
	offsets := make([]int64, n+1)
	var off int64
	for _, p := range layout {
		offsets[p] = off
		off += 4 + 4*int64(g.OutDegree(p))
	}
	offsets[n] = off
	recLen := make([]int32, n)
	for p := 0; p < n; p++ {
		recLen[p] = int32(4 + 4*g.OutDegree(webgraph.PageID(p)))
	}
	return &Rep{
		n:       n,
		file:    f,
		acc:     acc,
		offsets: offsets,
		recLen:  recLen,
		total:   off,
		domains: store.NewDomainRanges(c.Pages),
		pages:   c.Pages,
		cache:   iosim.NewLRU[[]byte](cacheBudget),
	}, nil
}

// Name implements store.LinkStore.
func (r *Rep) Name() string { return "files" }

// NumPages implements store.LinkStore.
func (r *Rep) NumPages() int { return r.n }

// chunk returns the cached chunk containing byte offset off.
func (r *Rep) chunk(id int64) ([]byte, error) {
	if data, ok := r.cache.Get(id); ok {
		return data, nil
	}
	data := make([]byte, chunkSize)
	nRead, err := r.file.ReadAt(data, id*chunkSize)
	if err != nil && err != io.EOF {
		return nil, err
	}
	data = data[:nRead]
	r.loads++
	r.cache.Put(id, data, int64(len(data)))
	return data, nil
}

// readAt assembles a read of length n at off from cached chunks.
func (r *Rep) readAt(dst []byte, off int64) error {
	for len(dst) > 0 {
		id := off / chunkSize
		inOff := int(off % chunkSize)
		ch, err := r.chunk(id)
		if err != nil {
			return err
		}
		if inOff >= len(ch) {
			return io.ErrUnexpectedEOF
		}
		n := copy(dst, ch[inOff:])
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// Out implements store.LinkStore.
func (r *Rep) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFiltered(p, nil, buf)
}

// OutFiltered implements store.LinkStore (flat layout: full list read,
// filter applied afterwards).
func (r *Rep) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if p < 0 || int(p) >= r.n {
		return buf, fmt.Errorf("flatfile: page %d out of range", p)
	}
	recLen := int(r.recLen[p])
	rec := make([]byte, recLen)
	if err := r.readAt(rec, r.offsets[p]); err != nil {
		return buf, err
	}
	deg := int(binary.LittleEndian.Uint32(rec[:4]))
	if 4+4*deg != recLen {
		return buf, fmt.Errorf("flatfile: page %d record corrupt", p)
	}
	for k := 0; k < deg; k++ {
		t := webgraph.PageID(binary.LittleEndian.Uint32(rec[4+4*k:]))
		if store.FilterAccepts(f, t, r.domainOf) {
			buf = append(buf, t)
		}
	}
	return buf, nil
}

func (r *Rep) domainOf(p webgraph.PageID) string { return r.pages[p].Domain }

// Stats implements store.LinkStore.
func (r *Rep) Stats() store.AccessStats {
	return store.AccessStats{IO: r.acc.Stats(), GraphsLoaded: r.loads}
}

// ResetStats implements store.LinkStore.
func (r *Rep) ResetStats() {
	r.acc.Reset()
	r.loads = 0
}

// ResetCache implements store.CacheResetter.
func (r *Rep) ResetCache(budget int64) {
	r.cache.Reset(budget)
	r.acc.Reset()
	r.loads = 0
}

// Close implements store.LinkStore.
func (r *Rep) Close() error { return r.file.Close() }

// SizeBytes implements store.Sized: data file plus the in-memory
// offset and domain indexes.
func (r *Rep) SizeBytes() int64 {
	return r.total + 8*int64(len(r.offsets)) + r.domains.SizeBytes()
}
