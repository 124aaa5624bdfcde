// Package link3 implements a Connectivity-Server-style "Link3"
// representation (Randall et al., the paper's strongest compression
// baseline). Pages, already numbered in URL-lexicographic order, are
// grouped into fixed-size blocks; within a block each adjacency list is
// reference-encoded against one of the previous 8 lists (delta/copy-list
// coding with gamma-coded residuals — exactly the internal/refenc window
// strategy), so blocks decode independently. Encoded blocks live on disk
// with an in-memory block directory and an LRU cache of decoded blocks,
// matching the paper's setup where Link3 keeps its indexes in memory and
// buffers file data.
//
// Unlike the S-Node scheme, Link3 is a flat representation: a filter
// cannot skip storage, and a single page access decodes its whole block.
package link3

import (
	"fmt"
	"path/filepath"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/iosim"
	"snode/internal/refenc"
	"snode/internal/store"
	"snode/internal/webgraph"
)

// BlockSize is the number of pages per block.
const BlockSize = 256

// refWindow matches the Link Database's window of 8 previous lists.
const refWindow = 8

const (
	dataFile = "link3.dat"
	dirFile  = "link3.dir"
)

// Build writes the representation into dir.
func Build(c *webgraph.Corpus, dir string) error {
	g := c.Graph
	n := g.NumPages()
	var offsets []int64
	err := coding.WriteFile(filepath.Join(dir, dataFile), func(bw *coding.Writer) error {
		w := bitio.NewWriter(1 << 16)
		for base := 0; base < n; base += BlockSize {
			end := base + BlockSize
			if end > n {
				end = n
			}
			lists := make([][]int32, end-base)
			for p := base; p < end; p++ {
				lists[p-base] = g.Out(webgraph.PageID(p))
			}
			w.Reset()
			if _, err := refenc.EncodeLists(w, lists, refenc.Options{Window: refWindow, TargetBound: uint64(n)}); err != nil {
				return err
			}
			offsets = append(offsets, bw.Offset())
			bw.Write(w.Bytes())
		}
		offsets = append(offsets, bw.Offset())
		return nil
	})
	if err != nil {
		return err
	}
	// Block directory.
	return coding.WriteFile(filepath.Join(dir, dirFile), func(dw *coding.Writer) error {
		dw.U64(uint64(n))
		for _, o := range offsets {
			dw.U64(uint64(o))
		}
		return nil
	})
}

// Rep is an opened Link3 representation.
type Rep struct {
	n       int
	file    *iosim.File
	acc     *iosim.Accountant
	offsets []int64 // per block, plus end sentinel
	domains store.DomainRanges

	cache   *iosim.LRU[refenc.Lists] // decoded blocks, by block number
	loads   int64
	decoded int64 // edges decoded (block granularity)
	readBuf []byte
}

// Open loads the block directory and prepares the cache.
func Open(c *webgraph.Corpus, dir string, cacheBudget int64, model iosim.Model) (*Rep, error) {
	r, err := coding.OpenFile(filepath.Join(dir, dirFile))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	n := c.Graph.NumPages()
	if got := r.U64(); r.Err() == nil && got != uint64(n) {
		return nil, fmt.Errorf("link3: representation covers %d pages, corpus has %d", got, n)
	}
	offsets := make([]int64, (n+BlockSize-1)/BlockSize+1)
	for i := range offsets {
		offsets[i] = int64(r.U64())
	}
	if r.End(); r.Err() != nil {
		return nil, fmt.Errorf("link3: directory of %d offsets: %w", len(offsets), r.Err())
	}
	acc := iosim.NewAccountant(model)
	f, err := acc.Open(filepath.Join(dir, dataFile))
	if err != nil {
		return nil, err
	}
	return &Rep{
		n:       n,
		file:    f,
		acc:     acc,
		offsets: offsets,
		domains: store.NewDomainRanges(c.Pages),
		cache:   iosim.NewLRU[refenc.Lists](cacheBudget),
	}, nil
}

// Name implements store.LinkStore.
func (r *Rep) Name() string { return "link3" }

// NumPages implements store.LinkStore.
func (r *Rep) NumPages() int { return r.n }

// block returns the decoded block bid, loading it if needed.
func (r *Rep) block(bid int) (refenc.Lists, error) {
	if lists, ok := r.cache.Get(int64(bid)); ok {
		return lists, nil
	}
	nBytes := int(r.offsets[bid+1] - r.offsets[bid])
	if cap(r.readBuf) < nBytes {
		r.readBuf = make([]byte, nBytes)
	}
	buf := r.readBuf[:nBytes]
	if _, err := r.file.ReadAt(buf, r.offsets[bid]); err != nil {
		return refenc.Lists{}, err
	}
	nLists := BlockSize
	if (bid+1)*BlockSize > r.n {
		nLists = r.n - bid*BlockSize
	}
	lists, err := refenc.DecodeListsBounded(bitio.NewByteReader(buf), nLists, uint64(r.n))
	if err != nil {
		return refenc.Lists{}, fmt.Errorf("link3: block %d: %w", bid, err)
	}
	r.loads++
	r.decoded += int64(len(lists.IDs))
	r.cache.Put(int64(bid), lists, lists.MemSize())
	return lists, nil
}

// Out implements store.LinkStore.
func (r *Rep) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFiltered(p, nil, buf)
}

// OutFiltered implements store.LinkStore.
func (r *Rep) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if p < 0 || int(p) >= r.n {
		return buf, fmt.Errorf("link3: page %d out of range", p)
	}
	lists, err := r.block(int(p) / BlockSize)
	if err != nil {
		return buf, err
	}
	for _, t := range lists.At(int(p) % BlockSize) {
		if f.Accepts(t) {
			buf = append(buf, t)
		}
	}
	return buf, nil
}

// Stats implements store.LinkStore.
func (r *Rep) Stats() store.AccessStats {
	return store.AccessStats{IO: r.acc.Stats(), GraphsLoaded: r.loads}
}

// ResetStats implements store.LinkStore.
func (r *Rep) ResetStats() {
	r.acc.Reset()
	r.loads = 0
	r.decoded = 0
}

// DecodedEdges reports edges decoded since the last reset (Table 2's
// decode-throughput metric; whole blocks decode at once).
func (r *Rep) DecodedEdges() int64 { return r.decoded }

// ResetCache drops decoded blocks and sets a new budget.
func (r *Rep) ResetCache(budget int64) {
	r.cache.Reset(budget)
	r.acc.Reset()
	r.loads = 0
	r.decoded = 0
}

// Close implements store.LinkStore.
func (r *Rep) Close() error { return r.file.Close() }

// SizeBytes implements store.Sized: data file, block directory, domain
// index.
func (r *Rep) SizeBytes() int64 {
	return r.offsets[len(r.offsets)-1] + 8*int64(len(r.offsets)) + r.domains.SizeBytes()
}
