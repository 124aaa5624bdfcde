// The parse pipeline: one reader cuts the (inflated) dataset into blocks
// of whole lines, the pool's workers tokenise blocks side by side, and
// the spiller takes the parsed blocks back strictly in file order — so
// statistics, run boundaries and the first error's line number are the
// same at every pool width.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"snode/internal/trace"
	"snode/internal/workpool"
)

const (
	// maxBlockBytes is the most one block reads: large enough that the
	// hand-over costs nothing a line, small enough that a window of
	// blocks is a rounding error beside the edge buffer.
	maxBlockBytes = 256 << 10
	// minBlockBytes keeps a degenerate budget from cutting a block a line.
	minBlockBytes = 4 << 10
	// maxLineBytes is the longest line accepted.
	maxLineBytes = 1 << 20
	// blockCharge is a block's footprint in flight over its size on
	// disk: its bytes, plus a 16-byte pair for every four of them at
	// the densest line there is ("0 1\n").
	blockCharge = 5
)

// block is one run of whole lines on its way from the reader through a
// worker to the spiller; the pipeline reuses window of them.
type block struct {
	buf   []byte    // the lines, as read
	edges []rawEdge // what they parse to, up to the first malformed one

	lines, comments, selfLoops int64

	// What stopped the block, if anything did: its badLine-th line is
	// malformed (bad says how), or the stream failed after the block's
	// last byte. A block can carry both; the line is the earlier.
	badLine int64
	bad     string
	readErr error
}

// blockSource cuts the stream into blocks. Workers call cut with the
// index the pool gave them and are admitted in index order, so block i
// is the i-th piece of the file whichever worker reads it.
type blockSource struct {
	mu   sync.Mutex
	turn sync.Cond // signalled when next moves
	next int       // index of the block to cut next

	r     io.Reader
	size  int
	carry []byte // what followed the last newline of the block before
	err   error  // what ended the stream (io.EOF included)
	done  bool   // the last block has been cut
}

// cut fills b with the next whole lines — about size bytes of them, the
// last block's final line possibly unterminated — or reports
// workpool.End once the stream is spent. A stream that fails hands over
// what it had read first, error attached, as bufio.Scanner did.
func (s *blockSource) cut(i int, b *block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next != i {
		s.turn.Wait()
	}
	defer func() {
		s.next++
		s.turn.Broadcast()
	}()
	if s.done {
		return workpool.End
	}
	*b = block{buf: append(b.buf[:0], s.carry...), edges: b.edges[:0]}
	s.carry = s.carry[:0]
	for target := max(s.size, len(b.buf)+1); ; target = min(2*target, maxLineBytes) {
		b.buf = slices.Grow(b.buf, target-len(b.buf))
		for s.err == nil && len(b.buf) < target {
			var n int
			n, s.err = s.r.Read(b.buf[len(b.buf):target])
			b.buf = b.buf[:len(b.buf)+n]
		}
		if s.err != nil {
			s.done = true
			if s.err != io.EOF {
				b.readErr = s.err
			} else if len(b.buf) == 0 {
				return workpool.End
			}
			return nil
		}
		if nl := bytes.LastIndexByte(b.buf, '\n'); nl >= 0 {
			s.carry = append(s.carry, b.buf[nl+1:]...)
			b.buf = b.buf[:nl+1]
			return nil
		}
		if target >= maxLineBytes {
			s.done = true
			b.buf, b.readErr = b.buf[:0], bufio.ErrTooLong
			return nil
		}
	}
}

// parse tokenises the block's lines: comments skipped, pairs collected,
// the first malformed line recorded by its number within the block.
//
// The loop stays on byte slices with hand-rolled field splits: at
// web-Google scale (millions of lines) a per-line string or []fields
// allocation is hundreds of MB of garbage, which would poison the very
// heap bound -max-heap-mb promises.
func (b *block) parse(format string) {
	fail := func(msg string, args ...any) {
		b.badLine, b.bad = b.lines, fmt.Sprintf(msg, args...)
	}
	for data := b.buf; len(data) > 0; {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		b.lines++
		// Two carriage returns, not one or all of them: bufio.ScanLines
		// dropped one and the loop over its tokens another.
		for k := 0; k < 2 && len(line) > 0 && line[len(line)-1] == '\r'; k++ {
			line = line[:len(line)-1]
		}
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			b.comments++
			continue
		}
		var fsrc, fdst []byte
		switch format {
		case FormatSNAP:
			var rest []byte
			fsrc, rest = nextToken(line)
			fdst, rest = nextToken(rest)
			if tail, _ := nextToken(rest); len(fdst) == 0 || len(tail) != 0 {
				fail("want 2 whitespace-separated fields in %q", line)
				return
			}
		case FormatTSV:
			i := bytes.IndexByte(line, '\t')
			if i < 0 {
				fail("want 2 or 3 tab-separated fields in %q", line)
				return
			}
			fsrc = line[:i]
			rest := line[i+1:]
			if j := bytes.IndexByte(rest, '\t'); j >= 0 {
				fdst = rest[:j]
				weight := rest[j+1:]
				if bytes.IndexByte(weight, '\t') >= 0 {
					fail("want 2 or 3 tab-separated fields in %q", line)
					return
				}
				if _, err := strconv.ParseFloat(strings.TrimSpace(string(weight)), 64); err != nil {
					fail("bad weight %q", weight)
					return
				}
			} else {
				fdst = rest
			}
		}
		src, err := strconv.ParseUint(string(fsrc), 10, 64)
		if err != nil {
			fail("bad source id %q", fsrc)
			return
		}
		dst, err := strconv.ParseUint(string(fdst), 10, 64)
		if err != nil {
			fail("bad target id %q", fdst)
			return
		}
		if src == dst {
			b.selfLoops++
		}
		b.edges = append(b.edges, rawEdge{src, dst})
	}
}

// nextToken returns the next whitespace-delimited token of line and
// the remainder after it (an empty token means none left). Allocation
// free, unlike strings.Fields.
func nextToken(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' && line[j] != '\t' {
		j++
	}
	return line[i:j], line[j:]
}

// parseEdges streams the dataset into the spiller: gzip-transparent,
// checksum-verified, comments skipped, malformed lines rejected with
// their line number. Blocks of blockBytes are parsed on pool and
// delivered in file order, at most 2*pool.Workers() of them in flight;
// a one-wide pool runs the same steps inline.
func parseEdges(ctx context.Context, path, format string, man manifest, sp *spiller, st *Stats, pool *workpool.Pool, blockBytes int) error {
	_, span := trace.Start(ctx, "ingest.parse")
	defer span.End()

	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()

	// The checksum covers the on-disk bytes, so the hasher taps the
	// stream before gzip inflation.
	var (
		raw    io.Reader = f
		hasher hash.Hash
	)
	wantSum, verify := manifestSum(man, path)
	if verify {
		hasher = sha256.New()
		raw = io.TeeReader(f, hasher)
	}
	// Smaller than a block, so that a plain file is read straight into
	// the block and only gzip's byte-at-a-time reads go through it.
	braw := bufio.NewReaderSize(raw, 64<<10)
	r, err := maybeGunzip(braw)
	if err != nil {
		return fmt.Errorf("ingest: %s: %w", path, err)
	}

	src := &blockSource{r: r, size: blockBytes}
	src.turn.L = &src.mu
	window := parseWindow(pool)
	ring := make([]block, window)
	parse := func(_ context.Context, i int) (*block, error) {
		b := &ring[i%window]
		if err := src.cut(i, b); err != nil {
			return nil, err
		}
		b.parse(format)
		return b, nil
	}
	deliver := func(_ int, b *block) error {
		first := st.Lines // lines before this block
		st.Lines += b.lines
		st.Comments += b.comments
		st.EdgeLines += int64(len(b.edges))
		st.SelfLoops += b.selfLoops
		for _, e := range b.edges {
			if err := sp.add(ctx, e.s, e.d, st); err != nil {
				return err
			}
		}
		if b.bad != "" {
			return fmt.Errorf("ingest: %s:%d: %s", path, first+b.badLine, b.bad)
		}
		if b.readErr != nil {
			// A truncated gzip stream or oversized line surfaces here; the
			// line number localizes how far the parse got.
			return fmt.Errorf("ingest: %s:%d: %w", path, st.Lines+1, b.readErr)
		}
		return nil
	}
	if err := workpool.Ordered(ctx, pool, workpool.Unbounded, window, parse, deliver); err != nil {
		return err
	}
	if verify {
		// Drain whatever the logical reader left unconsumed (gzip
		// trailer bytes, readahead) so the hash covers the whole file.
		if _, err := io.Copy(io.Discard, braw); err != nil {
			return fmt.Errorf("ingest: %s: %w", path, err)
		}
		got := hex.EncodeToString(hasher.Sum(nil))
		if got != wantSum {
			return fmt.Errorf("ingest: %s: checksum mismatch: manifest %s, file %s", path, wantSum, got)
		}
	}
	return nil
}

// parseWindow is how many blocks a pool keeps in flight: one being
// parsed and one waiting for the spiller per worker.
func parseWindow(pool *workpool.Pool) int { return 2 * pool.Workers() }
