// Package corpusio serializes a crawl's page metadata to one file: a
// dataset's meta.bin, the URL, domain and terms of every page, which
// shard.Build writes and every shard reads back in shard.OpenServing.
// It holds no links and no crawl order: the S-Node stores hold the
// links, and nothing that serves a dataset reads an order.
//
// Format: uvarint page count; per page: URL, domain, uvarint term count,
// terms (each string uvarint-length-prefixed).
//
// Read holds each piece of metadata once: the file is read into one
// string, a domain's pages share one Domain string, and the URLs and the
// pages' joined terms are copied into two blocks, the terms apart so
// that a reader done with them (shard.OpenServing, once the text index
// holds them) frees them whole.
package corpusio

import (
	"fmt"
	"io"
	"os"
	"strings"

	"snode/internal/coding"
	"snode/internal/webgraph"
)

// Write serializes pages to path.
func Write(pages []webgraph.PageMeta, path string) error {
	return coding.WriteFile(path, func(w *coding.Writer) error {
		w.Uvarint(uint64(len(pages)))
		for _, pm := range pages {
			w.Str(pm.URL)
			w.Str(pm.Domain)
			w.Uvarint(uint64(webgraph.CountTerms(pm.Terms)))
			webgraph.EachTerm(pm.Terms, w.Str)
		}
		return nil
	})
}

// minPageBytes is the least a page can occupy: an empty URL, domain and
// term list at a byte each.
const minPageBytes = 3

// Read loads the pages Write wrote, and nothing else: a page count the
// file is too short to hold, a field the file ends inside, a term
// webgraph.CheckTerm refuses (an empty one, or one holding the joined
// form's separator), bytes after the last page and pages
// webgraph.ValidatePages refuses are all refused, before anything is
// sized or indexed by them.
//
// The file is read into one string, sized from Stat, and parsed twice
// in place: once to check it and size the blocks, once to fill them. A
// domain's pages are one run, so only a change of domain copies a
// Domain string; the URLs are copied into one block and the pages'
// joined terms into another, each sized exactly. A read allocates the
// file's bytes once, and per domain, never per page or per term.
func Read(path string) ([]webgraph.PageMeta, error) {
	raw, err := readString(path)
	if err != nil {
		return nil, err
	}
	r := coding.NewReader(raw)
	n := r.Count(1<<30, minPageBytes)
	if r.Err() != nil {
		return nil, fmt.Errorf("corpusio: %s: page count: %w", path, r.Err())
	}
	if n == 0 {
		return nil, fmt.Errorf("corpusio: %s holds no pages", path)
	}
	pages := make([]webgraph.PageMeta, n)
	urlBytes, termBytes, mostTerms := 0, 0, 0
	for pid := range pages {
		pm := &pages[pid]
		urlBytes += len(r.Str())
		if d := r.Str(); pid > 0 && d == pages[pid-1].Domain {
			pm.Domain = pages[pid-1].Domain
		} else {
			pm.Domain = strings.Clone(d)
		}
		k := r.Count(maxTerms, 1)
		mostTerms = max(mostTerms, k)
		for i := range k {
			t := r.Str()
			if err := webgraph.CheckTerm(t); r.Err() == nil && err != nil {
				return nil, fmt.Errorf("corpusio: %s: page %d: %w", path, pid, err)
			}
			termBytes += len(t) + min(i, 1) // a separator before every term but the first
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("corpusio: %s: page %d: %w", path, pid, r.Err())
		}
	}
	if r.End(); r.Err() != nil {
		return nil, fmt.Errorf("corpusio: %s: %w", path, r.Err())
	}

	// The file checks out: read it again into the blocks, which are
	// sized exactly and so never move while they are cut.
	var urlBlock, termBlock strings.Builder
	urlBlock.Grow(urlBytes)
	termBlock.Grow(termBytes)
	terms := make([]string, 0, mostTerms) // one page's, substrings of the file
	r = coding.NewReader(raw)
	r.Uvarint() // the page count, checked above
	for pid := range pages {
		pm := &pages[pid]
		from := urlBlock.Len()
		urlBlock.WriteString(r.Str())
		pm.URL = urlBlock.String()[from:]
		r.Str()
		terms = terms[:0]
		for range r.Count(maxTerms, 1) {
			terms = append(terms, r.Str())
		}
		from = termBlock.Len()
		webgraph.WriteTerms(&termBlock, terms)
		pm.Terms = termBlock.String()[from:]
	}
	if err := webgraph.ValidatePages(pages); err != nil {
		return nil, fmt.Errorf("corpusio: %s: %w", path, err)
	}
	return pages, nil
}

// maxTerms bounds a page's term count.
const maxTerms = 1 << 16

// readString reads the file at path into one string, its only copy: a
// builder grown to the size Stat reports, filled through a buffer no
// larger than the file.
func readString(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.Grow(int(fi.Size()))
	if _, err := io.CopyN(&sb, f, fi.Size()); err != nil {
		return "", fmt.Errorf("corpusio: %s: %w", path, err)
	}
	return sb.String(), nil
}
