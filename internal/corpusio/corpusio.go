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
// string, a domain's pages share one Domain string, the URLs are copied
// into one block, and the terms are substrings of the file until the
// text index has copied each distinct one (shard.OpenServing then drops
// them).
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
			w.Uvarint(uint64(len(pm.Terms)))
			for _, t := range pm.Terms {
				w.Str(t)
			}
		}
		return nil
	})
}

// minPageBytes is the least a page can occupy: an empty URL, domain and
// term list at a byte each.
const minPageBytes = 3

// Read loads the pages Write wrote, and nothing else: a page count the
// file is too short to hold, a field the file ends inside, bytes after
// the last page and pages webgraph.ValidatePages refuses are all
// refused, before anything is sized or indexed by them.
//
// The file is read into one string, sized from Stat, and parsed in
// place. A domain's pages are one run, so only a change of domain copies
// a Domain string; the URLs are copied into one block, sized exactly;
// each page's terms are substrings of the file, which they keep alive
// until they are dropped. A read allocates the file's bytes once, and
// per page and per domain, never per term.
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
	urlBytes := 0
	for pid := range pages {
		pm := &pages[pid]
		pm.URL = r.Str() // a substring of the file until the block below
		urlBytes += len(pm.URL)
		if d := r.Str(); pid > 0 && d == pages[pid-1].Domain {
			pm.Domain = pages[pid-1].Domain
		} else {
			pm.Domain = strings.Clone(d)
		}
		pm.Terms = make([]string, r.Count(1<<16, 1))
		for i := range pm.Terms {
			pm.Terms[i] = r.Str()
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("corpusio: %s: page %d: %w", path, pid, r.Err())
		}
	}
	if r.End(); r.Err() != nil {
		return nil, fmt.Errorf("corpusio: %s: %w", path, r.Err())
	}
	var block strings.Builder
	block.Grow(urlBytes)
	for _, pm := range pages {
		block.WriteString(pm.URL)
	}
	urls := block.String()
	for pid := range pages {
		k := len(pages[pid].URL)
		pages[pid].URL, urls = urls[:k], urls[k:]
	}
	if err := webgraph.ValidatePages(pages); err != nil {
		return nil, fmt.Errorf("corpusio: %s: %w", path, err)
	}
	return pages, nil
}

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
