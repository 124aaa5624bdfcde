package ingest

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"snode/internal/iosim"
	"snode/internal/webgraph"
	"snode/internal/workpool"
)

// scanReference is the parse loop the block pipeline replaced — one
// bufio.Scanner, one line at a time — kept as the oracle for what a
// SNAP file parses to: the pairs in file order, the statistics, and the
// error a malformed or cut-off file ends in (with path standing in for
// the file's name).
func scanReference(path string, data []byte) (edges []rawEdge, st Stats, err error) {
	r, err := maybeGunzip(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, st, fmt.Errorf("ingest: %s: %w", path, err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lineNo int64
	for sc.Scan() {
		lineNo++
		st.Lines++
		line := sc.Bytes()
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			st.Comments++
			continue
		}
		fsrc, rest := nextToken(line)
		fdst, rest := nextToken(rest)
		if tail, _ := nextToken(rest); len(fdst) == 0 || len(tail) != 0 {
			return edges, st, fmt.Errorf("ingest: %s:%d: want 2 whitespace-separated fields in %q", path, lineNo, line)
		}
		src, err := strconv.ParseUint(string(fsrc), 10, 64)
		if err != nil {
			return edges, st, fmt.Errorf("ingest: %s:%d: bad source id %q", path, lineNo, fsrc)
		}
		dst, err := strconv.ParseUint(string(fdst), 10, 64)
		if err != nil {
			return edges, st, fmt.Errorf("ingest: %s:%d: bad target id %q", path, lineNo, fdst)
		}
		st.EdgeLines++
		if src == dst {
			st.SelfLoops++
		}
		edges = append(edges, rawEdge{src, dst})
	}
	if err := sc.Err(); err != nil {
		return edges, st, fmt.Errorf("ingest: %s:%d: %w", path, lineNo+1, err)
	}
	return edges, st, nil
}

// widthInvariantData is ~6,000 lines with everything a block boundary
// can land on: comments, blank lines, CRLF endings, a doubled carriage
// return, duplicate pairs, self-loops, sparse 64-bit IDs, and a last
// line with no newline.
func widthInvariantData() string {
	var b strings.Builder
	b.WriteString("# Directed graph\n# Nodes: ? Edges: ?\n")
	raw := func(k int) uint64 {
		if k%211 == 0 {
			return 1<<63 + uint64(k)
		}
		return uint64(k) * 1000003
	}
	for i := 0; i < 6000; i++ {
		s, d := raw(i%997), raw((i*7)%997)
		switch i % 50 {
		case 3:
			fmt.Fprintf(&b, "%d\t%d\r\n", s, d)
		case 11:
			fmt.Fprintf(&b, "%d %d\r\r\n", s, d)
		case 17:
			fmt.Fprintf(&b, "%% a comment in the middle, line %d\n%d %d\n", i, s, s)
		case 23:
			fmt.Fprintf(&b, "\n  %d   %d  \n", s, d)
		default:
			fmt.Fprintf(&b, "%d %d\n", s, d)
		}
	}
	b.WriteString("5 18446744073709551615")
	return b.String()
}

// parseOutcome is everything one pass through parseEdges and finalize
// leaves behind.
type parseOutcome struct {
	st      Stats
	runs    [][]byte
	offsets []int64
	targets []webgraph.PageID
	table   []uint64
	err     string
}

// runPipeline parses path on a pool of the given width in blocks of
// blockBytes, under the smallest budget there is (a run every 4,096
// edges), and collects the outcome; the run files are read before the
// merge consumes them.
func runPipeline(t *testing.T, path string, man manifest, workers, blockBytes int) parseOutcome {
	t.Helper()
	var out parseOutcome
	ctx := context.Background()
	sp := newSpiller(Options{MaxHeapMB: 1, SpillDir: t.TempDir()}, false)
	sp.budget = minBudgetEdges
	defer sp.cleanup()
	if err := parseEdges(ctx, path, FormatSNAP, man, sp, &out.st, workpool.New(workers), blockBytes); err != nil {
		out.err = err.Error()
		return out
	}
	for _, r := range sp.runs {
		data, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		out.runs = append(out.runs, data)
	}
	var err error
	if out.offsets, out.targets, out.table, err = sp.finalize(ctx, &out.st, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIngestWidthInvariant: the pipeline's output does not depend on how
// wide the pool is, where the blocks are cut or whether the file is
// gzipped — the statistics, the spilled runs byte for byte, the
// compaction table and the CSR arrays all equal the one-wide,
// one-block parse, whose pairs and counts equal the scanner's.
func TestIngestWidthInvariant(t *testing.T) {
	data := widthInvariantData()
	dir := t.TempDir()
	plain := filepath.Join(dir, "graph.txt")
	gz := filepath.Join(dir, "graph.txt.gz")
	if err := os.WriteFile(plain, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gz, gzipBytes(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	want := runPipeline(t, plain, nil, 1, 1<<20)
	if want.err != "" {
		t.Fatal(want.err)
	}
	refEdges, refSt, err := scanReference(plain, []byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if want.st.Lines != refSt.Lines || want.st.Comments != refSt.Comments ||
		want.st.EdgeLines != refSt.EdgeLines || want.st.SelfLoops != refSt.SelfLoops {
		t.Fatalf("pipeline counted %+v, the scanner %+v", want.st, refSt)
	}
	if want.st.Runs < 2 || int(want.st.EdgeLines) != len(refEdges) || want.st.SelfLoops == 0 || want.st.DupEdges == 0 {
		t.Fatalf("the data no longer exercises runs, self-loops and duplicates: %+v", want.st)
	}

	// The first read of a plain file ends at the block size: put that
	// end inside a line, between a CR and its LF, inside a comment, and
	// inside the last line; then sizes small enough to cut everywhere.
	crlf := strings.Index(data, "\r\n")
	comment := strings.Index(data, "% a comment")
	sizes := []int{
		strings.Index(data, "\n1000003 ") + 4,
		crlf + 1,
		comment + 5,
		len(data) - 3,
		7, 61, 1000, 4096, len(data), maxBlockBytes,
	}
	for _, path := range []string{plain, gz} {
		for _, workers := range []int{1, 2, 8} {
			for _, size := range sizes {
				got := runPipeline(t, path, nil, workers, size)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d workers, %d-byte blocks: stats %+v (err %q), want %+v; runs equal %v, table equal %v, CSR equal %v",
						filepath.Base(path), workers, size, got.st, got.err, want.st,
						reflect.DeepEqual(got.runs, want.runs), slices.Equal(got.table, want.table),
						slices.Equal(got.offsets, want.offsets) && slices.Equal(got.targets, want.targets))
				}
			}
		}
	}
}

// TestIngestErrorsAreTheScannersAtAnyWidth: what a bad file is refused
// with — the message and the line number in it — is what the serial
// scanner said, whichever block a worker finishes first.
func TestIngestErrorsAreTheScannersAtAnyWidth(t *testing.T) {
	lines := strings.SplitAfter(widthInvariantData(), "\n")
	// A malformed line late in the file and another a few blocks on:
	// the later one's block can be parsed, and refused, first.
	lines[5000] = "12 34 56\n"
	lines[5300] = "x y\n"
	twoBad := strings.Join(lines, "")
	var long strings.Builder
	long.WriteString("1 2\n3 4\n")
	long.WriteString(strings.Repeat("9", maxLineBytes+10))
	long.WriteString(" 5\n6 7\n")

	gzData := gzipBytes(t, widthInvariantData())
	cases := []struct {
		name     string
		file     string
		data     []byte
		contains string
	}{
		{"two malformed lines", "graph.txt", []byte(twoBad), ":5001: want 2 whitespace-separated fields"},
		{"two malformed lines, gzipped", "graph.txt.gz", gzipBytes(t, twoBad), ":5001: want 2 whitespace-separated fields"},
		// What is inflated before the cut ends mid-line, and the scanner
		// hands that piece over as a line before it reports the stream.
		{"truncated gzip", "graph.txt.gz", gzData[:len(gzData)/2], "want 2 whitespace-separated fields"},
		{"gzip cut inside its trailer", "graph.txt.gz", gzData[:len(gzData)-3], "unexpected EOF"},
		{"line over the limit", "graph.txt", []byte(long.String()), ":3: bufio.Scanner: token too long"},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.file)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, refErr := scanReference(path, tc.data)
		if refErr == nil || !strings.Contains(refErr.Error(), tc.contains) {
			t.Fatalf("%s: the scanner said %v, want %q in it", tc.name, refErr, tc.contains)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, size := range []int{7, 1000, maxBlockBytes} {
				if got := runPipeline(t, path, nil, workers, size); got.err != refErr.Error() {
					t.Fatalf("%s, %d workers, %d-byte blocks: error %q, the scanner's was %q", tc.name, workers, size, got.err, refErr)
				}
			}
		}
	}

	// The digest is of the bytes on disk, every one of them, however the
	// blocks fall.
	data := []byte(widthInvariantData())
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	good := manifest{"graph.txt": hex.EncodeToString(sum[:])}
	bad := manifest{"graph.txt": strings.Repeat("0", 64)}
	for _, workers := range []int{1, 2, 8} {
		for _, size := range []int{61, maxBlockBytes} {
			if got := runPipeline(t, path, good, workers, size); got.err != "" {
				t.Fatalf("%d workers, %d-byte blocks: a matching digest refused: %s", workers, size, got.err)
			}
			want := fmt.Sprintf("ingest: %s: checksum mismatch: manifest %s, file %s", path, bad["graph.txt"], good["graph.txt"])
			if got := runPipeline(t, path, bad, workers, size); got.err != want {
				t.Fatalf("%d workers, %d-byte blocks: error %q, want %q", workers, size, got.err, want)
			}
		}
	}
}

// cancelledIngestData spills half a dozen runs under a 1 MB budget.
func cancelledIngestData() string {
	var b strings.Builder
	for i := 0; i < 300000; i++ {
		fmt.Fprintf(&b, "%d %d\n", i%50021, (i*7)%50021)
	}
	return b.String()
}

// TestCancelledIngestLeavesNothing: an ingest cancelled while it is
// spilling returns the context's error and takes its runs — and the
// spill directory, when it made one — with it. The modeled disk is
// paced, so every run written holds the ingest up for a seek's worth of
// real time: long enough for the first run to be seen on disk.
func TestCancelledIngestLeavesNothing(t *testing.T) {
	path := writeDataset(t, "graph.txt", cancelledIngestData())
	disk := iosim.NewAccountant(iosim.Model2002())
	disk.SetPace(1)
	for _, own := range []bool{false, true} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		opt := Options{MaxHeapMB: 1, IO: disk}
		firstRun := filepath.Join(tmp, "snode-ingest-*", "run-0000.edges")
		if !own {
			opt.SpillDir = filepath.Join(tmp, "spill")
			firstRun = filepath.Join(opt.SpillDir, "run-0000.edges")
		}
		ctx, cancel := context.WithCancel(context.Background())
		watching := make(chan struct{})
		go func() {
			defer close(watching)
			for ctx.Err() == nil {
				if m, _ := filepath.Glob(firstRun); len(m) > 0 {
					cancel()
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
		_, _, err := Ingest(ctx, path, opt)
		cancel()
		<-watching
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("own directory %v: err = %v, want context.Canceled", own, err)
		}
		left, err := filepath.Glob(filepath.Join(tmp, "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("own directory %v: the cancelled ingest left %v", own, left)
		}
		if dirs, _ := filepath.Glob(filepath.Join(tmp, "snode-ingest-*")); len(dirs) != 0 {
			t.Fatalf("own directory %v: the cancelled ingest left %v", own, dirs)
		}
	}

	// Cancelled before it starts: no file is opened, nothing is made.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Ingest(ctx, path, Options{MaxHeapMB: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) != 0 {
		t.Fatalf("pre-cancelled ingest left %v", left)
	}
}

// TestCancelledMergeLeavesNothing: the merge looks at the context too,
// and the runs it had open go with it.
func TestCancelledMergeLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	sp := newSpiller(Options{MaxHeapMB: 1, SpillDir: dir}, false)
	sp.budget = minBudgetEdges
	var st Stats
	for i := 0; i < 3*minBudgetEdges; i++ {
		if err := sp.add(context.Background(), uint64(i%977), uint64(i%1013), &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.Runs < 3 {
		t.Fatalf("%d runs, want 3", st.Runs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sp.finalize(ctx, &st, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sp.cleanup()
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("the cancelled merge left %v", left)
	}
}
