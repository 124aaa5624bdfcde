// Package huffgraph implements the paper's "plain Huffman"
// representation baseline (§4): every page receives a canonical Huffman
// code based on its in-degree — pages that appear often in adjacency
// lists get short codes — and each adjacency list is stored as a
// gamma-coded degree followed by the Huffman codes of its targets. A
// per-page bit-offset array provides random access.
//
// The representation is memory-resident (the paper's Table 2 measures
// its in-memory decode speed; Table 1 notes it stops fitting in memory
// long before the compressed schemes do).
package huffgraph

import (
	"fmt"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/store"
	"snode/internal/webgraph"
)

// Rep is a built plain-Huffman representation.
type Rep struct {
	n       int
	edges   int64
	huff    *coding.Huffman
	bits    []byte
	bitLen  int
	offsets []int64 // bit offset of each page's list
	domains store.DomainRanges
	stats   store.AccessStats
}

// Build constructs the representation from a corpus.
func Build(c *webgraph.Corpus) (*Rep, error) {
	g := c.Graph
	n := g.NumPages()
	inDeg := g.InDegrees()
	freqs := make([]int64, n)
	for i, d := range inDeg {
		freqs[i] = int64(d) + 1 // smoothing: every page gets a code
	}
	huff, err := coding.NewHuffman(freqs)
	if err != nil {
		return nil, fmt.Errorf("huffgraph: %w", err)
	}
	w := bitio.NewWriter(1 << 20)
	offsets := make([]int64, n+1)
	for p := 0; p < n; p++ {
		offsets[p] = int64(w.BitLen())
		adj := g.Out(webgraph.PageID(p))
		coding.WriteGamma0(w, uint64(len(adj)))
		for _, t := range adj {
			huff.Encode(w, t)
		}
	}
	offsets[n] = int64(w.BitLen())
	return &Rep{
		n:       n,
		edges:   g.NumEdges(),
		huff:    huff,
		bits:    w.Bytes(),
		bitLen:  w.BitLen(),
		offsets: offsets,
		domains: store.NewDomainRanges(c.Pages),
	}, nil
}

// Name implements store.LinkStore.
func (r *Rep) Name() string { return "huffman" }

// NumPages implements store.LinkStore.
func (r *Rep) NumPages() int { return r.n }

// Out implements store.LinkStore.
func (r *Rep) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFiltered(p, nil, buf)
}

// OutFiltered implements store.LinkStore; the whole list must be
// decoded regardless of the filter (no structural skipping is possible
// in a flat representation).
func (r *Rep) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if p < 0 || int(p) >= r.n {
		return buf, fmt.Errorf("huffgraph: page %d out of range", p)
	}
	rd := bitio.NewReader(r.bits, r.bitLen)
	if err := rd.Seek(int(r.offsets[p])); err != nil {
		return buf, err
	}
	deg, err := coding.ReadGamma0(rd)
	if err != nil {
		return buf, err
	}
	for k := uint64(0); k < deg; k++ {
		t, err := r.huff.Decode(rd)
		if err != nil {
			return buf, err
		}
		if f.Accepts(t) {
			buf = append(buf, t)
		}
	}
	return buf, nil
}

// Stats implements store.LinkStore (no disk I/O: memory resident).
func (r *Rep) Stats() store.AccessStats { return r.stats }

// ResetStats implements store.LinkStore.
func (r *Rep) ResetStats() { r.stats = store.AccessStats{} }

// Close implements store.LinkStore.
func (r *Rep) Close() error { return nil }

// SizeBytes implements store.Sized: the bit stream, the per-page offset
// array, and the domain index. (The Huffman code tables are counted via
// a canonical-code-lengths estimate: one byte per page.)
func (r *Rep) SizeBytes() int64 {
	return int64(len(r.bits)) + 8*int64(len(r.offsets)) + int64(r.n) + r.domains.SizeBytes()
}
