// Export writes a corpus back out in the formats Ingest reads: a
// SNAP-style edge list, the URL-table sidecar carrying every page's
// metadata, and a sha256sum manifest covering both. The round trip
// (synth → Export → Ingest) must rebuild the identical corpus — that
// oracle is what lets the tests and benchmarks exercise the real-graph
// path at 1M pages without a network fetch.
package ingest

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"snode/internal/coding"
	"snode/internal/webgraph"
)

// ExportOptions controls Export. The zero value writes an uncompressed
// graph.txt.
type ExportOptions struct {
	// Gzip compresses the edge list (written as graph.txt.gz); the URL
	// table and manifest stay plain so they remain inspectable.
	Gzip bool
}

// ExportResult reports what Export wrote.
type ExportResult struct {
	GraphPath    string
	URLTablePath string
	ManifestPath string
	Nodes        int
	Edges        int64
}

// Export writes c into dir as edge list + URL table + manifest. Page i
// is exported with raw ID i, so re-ingesting yields the same dense IDs
// and an identical corpus (the crawl visit order is the one thing an
// edge list cannot carry; Ingest substitutes ascending page ID).
func Export(c *webgraph.Corpus, dir string, opt ExportOptions) (*ExportResult, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: export: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: export: %w", err)
	}
	name := "graph.txt"
	if opt.Gzip {
		name += ".gz"
	}
	res := &ExportResult{
		GraphPath:    filepath.Join(dir, name),
		URLTablePath: filepath.Join(dir, DefaultURLTable),
		ManifestPath: filepath.Join(dir, DefaultManifest),
		Nodes:        c.Graph.NumPages(),
		Edges:        c.Graph.NumEdges(),
	}

	graphSum, err := writeGraphFile(res.GraphPath, c.Graph, opt.Gzip)
	if err != nil {
		return nil, err
	}
	urlSum, err := writeURLTable(res.URLTablePath, c.Pages)
	if err != nil {
		return nil, err
	}
	err = coding.WriteFile(res.ManifestPath, func(w *coding.Writer) error {
		fmt.Fprintf(w, "%s  %s\n", graphSum, filepath.Base(res.GraphPath))
		fmt.Fprintf(w, "%s  %s\n", urlSum, filepath.Base(res.URLTablePath))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: export: %w", err)
	}
	return res, nil
}

// writeHashed writes path with what fill writes, gzipped if gz, and
// returns the hex SHA-256 of the bytes that reached the file.
func writeHashed(path string, gz bool, fill func(bw *bufio.Writer) error) (string, error) {
	hasher := sha256.New()
	err := coding.WriteFile(path, func(w *coding.Writer) error {
		var out io.Writer = io.MultiWriter(w, hasher)
		var zw *gzip.Writer
		if gz {
			zw = gzip.NewWriter(out)
			out = zw
		}
		bw := bufio.NewWriterSize(out, 1<<20)
		if err := fill(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil || zw == nil {
			return err
		}
		return zw.Close()
	})
	if err != nil {
		return "", fmt.Errorf("ingest: export: %w", err)
	}
	return hex.EncodeToString(hasher.Sum(nil)), nil
}

// writeGraphFile writes the SNAP-style edge list and returns the hex
// SHA-256 of the on-disk (post-compression) bytes.
func writeGraphFile(path string, g *webgraph.Graph, gz bool) (string, error) {
	return writeHashed(path, gz, func(bw *bufio.Writer) error {
		fmt.Fprintf(bw, "# Directed graph: %s\n", filepath.Base(path))
		fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.NumPages(), g.NumEdges())
		fmt.Fprintf(bw, "# FromNodeId\tToNodeId\n")
		var buf []byte
		for p := 0; p < g.NumPages(); p++ {
			for _, q := range g.Out(webgraph.PageID(p)) {
				buf = strconv.AppendInt(buf[:0], int64(p), 10)
				buf = append(buf, '\t')
				buf = strconv.AppendInt(buf, int64(q), 10)
				buf = append(buf, '\n')
				bw.Write(buf)
			}
		}
		return nil
	})
}

// writeURLTable writes the page-metadata sidecar and returns its hex
// SHA-256. Metadata containing the format's delimiters (tabs or
// newlines anywhere, commas inside a term) cannot round-trip and is
// rejected rather than silently mangled.
func writeURLTable(path string, pages []webgraph.PageMeta) (string, error) {
	return writeHashed(path, false, func(bw *bufio.Writer) error {
		fmt.Fprintf(bw, "# Pages: %d\n", len(pages))
		fmt.Fprintf(bw, "# PageId\tUrl\tDomain\tTerms\n")
		for i, m := range pages {
			if err := checkField(m.URL, "url", i, false); err != nil {
				return err
			}
			if err := checkField(m.Domain, "domain", i, false); err != nil {
				return err
			}
			for _, t := range m.Terms {
				if err := checkField(t, "term", i, true); err != nil {
					return err
				}
			}
			fmt.Fprintf(bw, "%d\t%s\t%s\t%s\n", i, m.URL, m.Domain, strings.Join(m.Terms, ","))
		}
		return nil
	})
}

// checkField rejects metadata the tab-separated sidecar cannot carry.
func checkField(s, what string, page int, isTerm bool) error {
	if strings.ContainsAny(s, "\t\n\r") || (isTerm && (s == "" || strings.Contains(s, ","))) {
		return fmt.Errorf("page %d: %s %q contains a delimiter the url table cannot carry", page, what, s)
	}
	return nil
}
