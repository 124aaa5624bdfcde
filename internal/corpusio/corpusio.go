// Package corpusio serializes crawls (corpus + crawl order) to disk so
// the command-line tools can pass them between generation (sngen),
// representation building (snbuild), and querying (snquery).
//
// Format: uvarint page count; per page: URL, domain, term list
// (length-prefixed strings), gap-coded adjacency; then the crawl order.
package corpusio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"snode/internal/coding"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// Write serializes a crawl to path.
func Write(c *synth.Crawl, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	cw := &countingWriter{w: w}
	g := c.Corpus.Graph
	n := g.NumPages()
	cw.uvarint(uint64(n))
	for pid := 0; pid < n; pid++ {
		pm := c.Corpus.Pages[pid]
		cw.str(pm.URL)
		cw.str(pm.Domain)
		cw.uvarint(uint64(len(pm.Terms)))
		for _, t := range pm.Terms {
			cw.str(t)
		}
		adj := g.Out(int32(pid))
		cw.uvarint(uint64(len(adj)))
		prev := int64(-1)
		for _, t := range adj {
			cw.uvarint(uint64(int64(t) - prev))
			prev = int64(t)
		}
	}
	for _, pid := range c.Order {
		cw.uvarint(uint64(pid))
	}
	if cw.err != nil {
		f.Close()
		return cw.err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// minPageBytes is the least a page can occupy: empty URL, domain, term
// list and adjacency at a byte each, and its entry in the crawl order.
const minPageBytes = 5

// Read loads a crawl written by Write, and nothing else: a page count
// the file is too short to hold, an adjacency list that does not ascend
// strictly within [0, n), a crawl order that is not a permutation of the
// pages, and bytes after the order are all refused, before anything is
// sized or indexed by them.
func Read(path string) (*synth.Crawl, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}
	nu := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("corpusio: %w", r.err)
	}
	if nu == 0 || nu > 1<<30 || nu > uint64(fi.Size())/minPageBytes {
		return nil, fmt.Errorf("corpusio: implausible page count %d in a %d-byte file", nu, fi.Size())
	}
	n := int(nu)
	pages := make([]webgraph.PageMeta, n)
	b := webgraph.NewBuilder(n)
	for pid := 0; pid < n; pid++ {
		pages[pid].URL = r.str()
		pages[pid].Domain = r.str()
		nt := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("corpusio: page %d: %w", pid, r.err)
		}
		if nt > 1<<16 {
			return nil, fmt.Errorf("corpusio: page %d: implausible term count %d", pid, nt)
		}
		terms := make([]string, nt)
		for i := range terms {
			terms[i] = r.str()
		}
		pages[pid].Terms = terms
		deg := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("corpusio: page %d: %w", pid, r.err)
		}
		if deg > nu {
			return nil, fmt.Errorf("corpusio: page %d: implausible degree %d", pid, deg)
		}
		prev := int64(-1)
		for i := uint64(0); i < deg; i++ {
			gap := r.uvarint()
			if r.err != nil {
				return nil, fmt.Errorf("corpusio: page %d adjacency: %w", pid, r.err)
			}
			var ok bool
			if prev, ok = coding.StepGap(prev, gap, int64(n)); !ok {
				return nil, fmt.Errorf("corpusio: page %d adjacency: gap %d from %d repeats a target or leaves [0,%d)", pid, gap, prev, n)
			}
			b.AddEdge(int32(pid), int32(prev))
		}
	}
	order := make([]int32, n)
	seen := make([]bool, n)
	for i := range order {
		p := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("corpusio: order: %w", r.err)
		}
		if p >= nu || seen[p] {
			return nil, fmt.Errorf("corpusio: order entry %d names page %d: outside [0,%d) or already crawled", i, p, n)
		}
		seen[p] = true
		order[i] = int32(p)
	}
	if _, err := r.r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("corpusio: bytes after the crawl order")
	}
	crawl := &synth.Crawl{
		Corpus: &webgraph.Corpus{Graph: b.Build(), Pages: pages},
		Order:  order,
	}
	if err := crawl.Corpus.Validate(); err != nil {
		return nil, err
	}
	return crawl, nil
}

type countingWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (cw *countingWriter) uvarint(v uint64) {
	if cw.err != nil {
		return
	}
	n := binary.PutUvarint(cw.buf[:], v)
	_, cw.err = cw.w.Write(cw.buf[:n])
}

func (cw *countingWriter) str(s string) {
	cw.uvarint(uint64(len(s)))
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.WriteString(s)
}

type countingReader struct {
	r   *bufio.Reader
	err error
}

func (cr *countingReader) uvarint() uint64 {
	if cr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(cr.r)
	cr.err = err
	return v
}

func (cr *countingReader) str() string {
	n := cr.uvarint()
	if cr.err != nil {
		return ""
	}
	if n > 1<<20 {
		cr.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	_, cr.err = io.ReadFull(cr.r, b)
	return string(b)
}
