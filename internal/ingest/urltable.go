// Sidecar parsing: the sha256sum-style checksum manifest and the
// URL-table page-metadata file that accompany an exported or downloaded
// dataset.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"snode/internal/webgraph"
)

// manifest maps file base names to expected hex SHA-256 digests. A nil
// manifest means "no verification".
type manifest map[string]string

// readManifestFile parses a sha256sum-style manifest: one
// "<64-hex>  <name>" per line ('*' binary-mode markers tolerated),
// blank and '#' lines skipped.
func readManifestFile(path string) (manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: manifest: %w", err)
	}
	defer f.Close()

	man := manifest{}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(strings.TrimSuffix(sc.Text(), "\r"))
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("ingest: manifest %s:%d: want \"<sha256>  <name>\", got %q", path, lineNo, line)
		}
		sum := strings.ToLower(fields[0])
		if len(sum) != 64 {
			return nil, fmt.Errorf("ingest: manifest %s:%d: bad digest %q", path, lineNo, fields[0])
		}
		if _, err := hex.DecodeString(sum); err != nil {
			return nil, fmt.Errorf("ingest: manifest %s:%d: bad digest %q", path, lineNo, fields[0])
		}
		name := strings.TrimPrefix(fields[1], "*")
		man[filepath.Base(name)] = sum
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: manifest %s: %w", path, err)
	}
	if len(man) == 0 {
		return nil, fmt.Errorf("ingest: manifest %s: no entries", path)
	}
	return man, nil
}

// manifestSum looks up the expected digest for path (keyed by base
// name). The second result reports whether verification applies.
func manifestSum(man manifest, path string) (string, bool) {
	if man == nil {
		return "", false
	}
	sum, ok := man[filepath.Base(path)]
	return sum, ok
}

// readURLTable parses the page-metadata sidecar:
// "rawID\turl\tdomain[\tcomma-joined-terms]" per line, '#' and blank
// lines skipped, gzip-transparent. It returns the declared node
// universe as sorted raw IDs plus the metadata aligned to that order
// (i.e. indexed by the dense compacted ID the spiller will assign).
// Duplicate raw IDs are an error — two metadata claims for one page
// cannot be reconciled deterministically — and so is a domain whose
// pages resume after another domain's in ID order (errDomainReopened):
// every reader of the corpus takes a domain to be one ID range
// (store.DomainRanges).
//
// A line is parsed in the scanner's buffer and allocates nothing of its
// own: its URL and its term field, which is already the joined form
// webgraph.PageMeta.Terms holds, are copied into shared blocks (a
// stringBlocks, cut in chunks because a gzipped table's size is not
// known ahead), and a line of the previous line's domain shares its
// Domain string. The metadata thus costs its bytes, the []PageMeta and
// a string per domain run. Ingest's Corpus.Validate then refuses a term
// field that holds an empty term ("a,,b").
func readURLTable(ctx context.Context, path string, man manifest) ([]uint64, []webgraph.PageMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: url table: %w", err)
	}
	defer f.Close()

	var (
		raw    io.Reader = f
		hasher           = sha256.New()
	)
	wantSum, verify := manifestSum(man, path)
	if verify {
		raw = io.TeeReader(f, hasher)
	}
	braw := bufio.NewReaderSize(raw, 1<<20)
	r, err := maybeGunzip(braw)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: url table %s: %w", path, err)
	}

	// Parse straight into the final parallel arrays. A million-page
	// table is tens of MB of retained metadata; a []struct{id, meta}
	// staging slice would transiently double that, and a string per
	// line or per term is pure garbage at that scale — both working
	// state the -max-heap-mb discipline exists to avoid.
	var (
		universe []uint64
		metas    []webgraph.PageMeta
		blocks   stringBlocks
		sorted   = true
	)
	tableSize := int64(-1)
	if fi, err := f.Stat(); err == nil {
		tableSize = fi.Size()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lineNo int64
	for sc.Scan() {
		if lineNo%cancelCheckLines == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		lineNo++
		line := bytes.TrimSuffix(sc.Bytes(), []byte("\r"))
		if len(line) == 0 || line[0] == '#' {
			if universe == nil && tableSize >= 0 {
				if n, ok := pagesHint(string(line)); ok {
					// Trust the hint only up to what the file could
					// plausibly hold (a valid row is >= 6 bytes), so a
					// corrupt header cannot force an absurd allocation.
					if max := int(tableSize/6) + 1; n > max {
						n = max
					}
					universe = make([]uint64, 0, n)
					metas = make([]webgraph.PageMeta, 0, n)
				}
			}
			continue
		}
		idf, rest, ok := bytes.Cut(line, tab)
		if !ok {
			return nil, nil, fmt.Errorf("ingest: url table %s:%d: want 3 or 4 tab-separated fields, got 1", path, lineNo)
		}
		urlf, rest, ok2 := bytes.Cut(rest, tab)
		if !ok2 {
			return nil, nil, fmt.Errorf("ingest: url table %s:%d: want 3 or 4 tab-separated fields, got 2", path, lineNo)
		}
		domf, termsf, _ := bytes.Cut(rest, tab)
		if bytes.IndexByte(termsf, '\t') >= 0 {
			return nil, nil, fmt.Errorf("ingest: url table %s:%d: want 3 or 4 tab-separated fields, got more", path, lineNo)
		}
		id, err := strconv.ParseUint(string(idf), 10, 64) // string(idf) is not kept: no copy
		if err != nil {
			return nil, nil, fmt.Errorf("ingest: url table %s:%d: bad page id %q", path, lineNo, idf)
		}
		if len(urlf) == 0 || len(domf) == 0 {
			return nil, nil, fmt.Errorf("ingest: url table %s:%d: empty url or domain", path, lineNo)
		}
		meta := webgraph.PageMeta{URL: blocks.copy(urlf), Terms: blocks.copy(termsf)}
		if k := len(metas); k > 0 && string(domf) == metas[k-1].Domain {
			meta.Domain = metas[k-1].Domain
		} else {
			meta.Domain = blocks.copy(domf)
		}
		if len(universe) > 0 && id <= universe[len(universe)-1] {
			sorted = false
		}
		universe = append(universe, id)
		metas = append(metas, meta)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("ingest: url table %s:%d: %w", path, lineNo+1, err)
	}
	if verify {
		if _, err := io.Copy(io.Discard, braw); err != nil {
			return nil, nil, fmt.Errorf("ingest: url table %s: %w", path, err)
		}
		got := hex.EncodeToString(hasher.Sum(nil))
		if got != wantSum {
			return nil, nil, fmt.Errorf("ingest: url table %s: checksum mismatch: manifest %s, file %s", path, wantSum, got)
		}
	}
	if len(universe) == 0 {
		return nil, nil, fmt.Errorf("ingest: url table %s: no pages", path)
	}

	// Exports (and most real sidecars) are already in ascending ID
	// order; sort in place only when the file isn't.
	if !sorted {
		sort.Sort(&tableSorter{ids: universe, metas: metas})
	}
	// lastOf holds each domain whose run has ended: the page it ended at.
	lastOf := map[string]uint64{}
	for i := 1; i < len(universe); i++ {
		if universe[i] == universe[i-1] {
			return nil, nil, fmt.Errorf("ingest: url table %s: duplicate page id %d", path, universe[i])
		}
		prev, d := metas[i-1].Domain, metas[i].Domain
		if d == prev {
			continue
		}
		lastOf[prev] = universe[i-1]
		if last, ok := lastOf[d]; ok {
			return nil, nil, fmt.Errorf("ingest: url table %s: page %d reopens %s, whose pages ended at page %d: %w", path, universe[i], d, last, errDomainReopened)
		}
	}
	return universe, metas, nil
}

// errDomainReopened refuses a URL table in which some domain's pages
// resume after another domain's in page-ID order.
var errDomainReopened = errors.New("a domain's pages must be contiguous in page-ID order")

var tab = []byte("\t")

// blockBytes is the size of a stringBlocks chunk: large enough that a
// chunk's unused tail is a small share of it, small enough that the last
// chunk's is a small share of a table.
const blockBytes = 64 << 10

// stringBlocks copies byte strings into shared chunks and hands each
// back as a string that is a substring of its chunk: a chunk is a
// strings.Builder grown once, written only within its capacity, so it
// never moves and every string cut from it stays valid. A string that
// does not fit the chunk's rest starts a new chunk.
type stringBlocks struct {
	chunk strings.Builder
}

// copy returns p's bytes as a string in a chunk ("" for none).
func (s *stringBlocks) copy(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	if s.chunk.Cap()-s.chunk.Len() < len(p) {
		s.chunk = strings.Builder{}
		s.chunk.Grow(max(blockBytes, len(p)))
	}
	from := s.chunk.Len()
	s.chunk.Write(p)
	return s.chunk.String()[from:]
}

// cancelCheckLines is how many table lines pass between two looks at
// the context.
const cancelCheckLines = 1 << 12

// pagesHint parses the "# Pages: N" header comment Export writes
// (mirroring SNAP's "# Nodes: N Edges: M"), letting the reader size
// the table arrays once instead of append-doubling through a
// million-entry growth ladder.
func pagesHint(line string) (int, bool) {
	rest, ok := strings.CutPrefix(line, "# Pages: ")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// tableSorter orders the universe/metas parallel arrays by raw ID
// without a merged staging copy.
type tableSorter struct {
	ids   []uint64
	metas []webgraph.PageMeta
}

func (t *tableSorter) Len() int           { return len(t.ids) }
func (t *tableSorter) Less(i, j int) bool { return t.ids[i] < t.ids[j] }
func (t *tableSorter) Swap(i, j int) {
	t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
	t.metas[i], t.metas[j] = t.metas[j], t.metas[i]
}
