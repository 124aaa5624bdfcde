package serve

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"snode/internal/coding"
	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/repo"
	"snode/internal/shard"
	"snode/internal/snode"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// samePartial reports how got differs from want, bit for bit on the
// floats ("" when it does not).
func samePartial(got, want PartialQueryResponse) string {
	if got.Query != want.Query || got.Shard != want.Shard || math.Float64bits(got.NavMS) != math.Float64bits(want.NavMS) {
		return "header " + strconv.Itoa(got.Query) + "/" + strconv.Itoa(got.Shard)
	}
	if len(got.Partials) != len(want.Partials) {
		return strconv.Itoa(len(got.Partials)) + " rows, want " + strconv.Itoa(len(want.Partials))
	}
	for i, w := range want.Partials {
		g := got.Partials[i]
		if g.Group != w.Group || g.Key != w.Key || math.Float64bits(g.Value) != math.Float64bits(w.Value) || !slices.Equal(g.Pages, w.Pages) {
			return "row " + strconv.Itoa(i)
		}
	}
	return ""
}

// TestPartialFrameRoundTrip: every partial both shards of a K=2 dataset
// give for Q1-Q6 comes back from its frame as it went in, the floats to
// the bit, and a NavMS with no short decimal form survives too.
func TestPartialFrameRoundTrip(t *testing.T) {
	_, crawl := getRepo(t)
	root := filepath.Join(t.TempDir(), "k2")
	if _, err := shard.Build(crawl, 2, root, snode.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		sh, err := shard.OpenServing(root, s, 16<<20, iosim.Model2002())
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		rep, err := NewReplica(sh, Config{}, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range query.All() {
			res, err := rep.Server.eng.RunPartial(t.Context(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := PartialQueryResponse{Query: int(q), Shard: s, Partials: res.Rows, NavMS: math.Pi * float64(q)}
			got, err := DecodePartial(encodePartial(&want))
			if err != nil {
				t.Fatalf("shard %d Q%d: %v", s, q, err)
			}
			if diff := samePartial(got, want); diff != "" {
				t.Fatalf("shard %d Q%d: the decoded frame differs at %s", s, q, diff)
			}
		}
	}
}

// frameRow is one row of a frame a test lays down: pages is the count
// written before the gaps, which are written as they are, so a test can
// write rows the encoder never would.
type frameRow struct {
	group, key string
	pages      int
	gaps       []uint64
}

// set is a row of the given gaps and no group or key.
func set(gaps ...uint64) frameRow { return frameRow{pages: len(gaps), gaps: gaps} }

// frame lays down a partial frame field by field.
func frame(version, q uint64, shardID int64, rows uint64, rs ...frameRow) []byte {
	w := coding.NewBuffer(nil)
	w.Uvarint(version)
	w.Uvarint(q)
	w.Varint(shardID)
	w.U64(math.Float64bits(1.5))
	w.Uvarint(rows)
	for i, r := range rs {
		w.Str(r.group)
		w.Str(r.key)
		w.U64(math.Float64bits(float64(i)))
		w.Uvarint(uint64(r.pages))
		for _, g := range r.gaps {
			w.Uvarint(g)
		}
	}
	return w.Bytes()
}

// v1Frame is a version-1 Q3 frame, one decimal-keyed row per member.
func v1Frame(keys ...string) []byte {
	w := coding.NewBuffer(nil)
	w.Uvarint(1)
	w.Uvarint(3)
	w.Varint(1)
	w.U64(math.Float64bits(1.5))
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Str("")
		w.Str(k)
		w.U64(math.Float64bits(1))
	}
	return w.Bytes()
}

// partialSeed is a frame FuzzDecodePartial starts from — each also
// committed under testdata/fuzz — with the words the refusal of a bad
// one must contain ("" for a valid one).
type partialSeed struct {
	name, want string
	b          []byte
}

func partialSeeds() []partialSeed {
	// Pages 11, 12, 15, 40, ..., a run of neighbours and gaps of one,
	// two and three bytes, as a base set's are.
	q3 := frame(partialVersion, 3, 1, 1, set(12, 1, 3, 25, 1, 1, 1, 2, 1, 7, 1, 1, 130, 1, 2, 1, 1, 3, 1, 1, 20000, 1, 1, 2, 1))
	q4 := frame(partialVersion, 4, 0, 2,
		frameRow{group: "mit.edu", key: "mit.edu http://mit.edu/qc/1.html"},
		frameRow{group: "caltech.edu", key: "caltech.edu http://caltech.edu/q.html"})
	return []partialSeed{
		{"valid-q3", "", q3},
		{"valid-q4", "", q4},
		{"ends-inside-a-str", "count 37, at 1 bytes each, needs more than the 27 bytes left", q4[:len(q4)-19]},
		{"row-count-the-bytes-cannot-hold", "count 1000, at 11 bytes each, needs more than the 0 bytes left", frame(partialVersion, 3, 0, 1000)},
		{"trailing-byte", "1 bytes after the last field", append(append([]byte(nil), q3...), 0)},
		{"unknown-version", "version 3, want 2", frame(3, 3, 0, 0)},
		{"v1-frame", "version 1, want 2", v1Frame("12", "40", "977")},
		{"query-0", "query 0 not in 1..6", frame(partialVersion, 0, 0, 0)},
		{"query-7", "query 7 not in 1..6", frame(partialVersion, 7, 0, 0)},
		{"negative-shard", "shard -1", frame(partialVersion, 3, -1, 0)},
		{"zero-gap", "row 0: page 2: " + errZeroGap.Error(), frame(partialVersion, 3, 1, 1, set(12, 1, 0, 5))},
		{"gap-sum-past-maxint32", "row 0: page 1: gap 2147483647 from 1: " + errPageOverflow.Error(), frame(partialVersion, 3, 1, 1, set(2, math.MaxInt32))},
		{"page-count-the-bytes-cannot-hold", "count 5000, at 1 bytes each, needs more than the 3 bytes left", frame(partialVersion, 3, 1, 1, frameRow{pages: 5000, gaps: []uint64{1, 2, 3}})},
		{"pages-off-q3", "row 0: " + errPagesOffQ3.Error(), frame(partialVersion, 5, 0, 1, set(1, 2))},
	}
}

// TestDecodePartialRefusals: each bad seed is refused by name, each
// valid one read as the bytes it was. A page set that is not strictly
// ascending — a zero gap — is refused here, by the decoder, so the
// router's merge of Q3's sets never sees one.
func TestDecodePartialRefusals(t *testing.T) {
	for _, c := range partialSeeds() {
		p, err := DecodePartial(c.b)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want == "" && len(p.Partials) == 0:
			t.Errorf("%s: read no rows", c.name)
		case c.want == "" && !bytes.Equal(encodePartial(&p), c.b):
			t.Errorf("%s: read %+v, which encodes to other bytes", c.name, p)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodePartial: whatever the bytes, DecodePartial neither panics
// nor allocates beyond a multiple of them; it refuses them by name, or
// returns a response whose query, shard and page sets pass its checks
// (sets strictly ascending, on Q3's rows only), which encodes and
// decodes back to itself. Seeds: partialSeeds (committed under
// testdata/fuzz as well) and every strict prefix of the valid ones.
func FuzzDecodePartial(f *testing.F) {
	for _, c := range partialSeeds() {
		f.Add(c.b)
		if c.want == "" {
			for n := 0; n < len(c.b); n++ {
				f.Add(c.b[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodePartial(raw)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "partial frame: ") {
				t.Fatalf("refused with %q, which does not name the frame", err)
			}
		} else {
			pages := 0
			for i, r := range p.Partials {
				pages += len(r.Pages)
				if len(r.Pages) > 0 && p.Query != int(query.Q3) {
					t.Fatalf("accepted %d pages on row %d of Q%d", len(r.Pages), i, p.Query)
				}
				for j := 1; j < len(r.Pages); j++ {
					if r.Pages[j] <= r.Pages[j-1] {
						t.Fatalf("accepted row %d with page %d after %d", i, r.Pages[j], r.Pages[j-1])
					}
				}
				if len(r.Pages) > 0 && r.Pages[0] < 0 {
					t.Fatalf("accepted row %d with page %d", i, r.Pages[0])
				}
			}
			if p.Query < 1 || p.Query > 6 || p.Shard < 0 || len(p.Partials)*partialRowMin+pages > len(raw) {
				t.Fatalf("accepted Q%d shard %d with %d rows and %d pages from %d bytes", p.Query, p.Shard, len(p.Partials), pages, len(raw))
			}
			again, err := DecodePartial(encodePartial(&p))
			if err != nil {
				t.Fatalf("re-encoded frame refused: %v", err)
			}
			if diff := samePartial(again, p); diff != "" {
				t.Fatalf("re-encoded frame differs at %s", diff)
			}
		}
		// The string made from the bytes, and a 64-byte row for every 11
		// bytes at least one takes or a 4-byte page for each byte of its
		// gap: under 7 bytes a byte, 8 with the allocator's size classes;
		// 16 KiB for the rest, the fuzzing engine's own goroutines
		// included.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+8*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte frame made DecodePartial allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}

// TestDecodePartialAllocs pins the decode at a fixed number of
// allocations whatever the row count — the string made from the body and
// the row slice, not one a field — at 3,531 rows and at one. Wired into
// make check-overhead.
func TestDecodePartialAllocs(t *testing.T) {
	allocsFor := func(rows int) float64 {
		p := PartialQueryResponse{Query: 5, Shard: 1, NavMS: 3.5}
		for i := 0; i < rows; i++ {
			p.Partials = append(p.Partials, query.PartialRow{Key: strconv.Itoa(100000 + 7*i), Value: 1})
		}
		b := encodePartial(&p)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodePartial(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	big, small := allocsFor(3531), allocsFor(1)
	t.Logf("%.0f allocations at 3,531 rows, %.0f at one", big, small)
	if big > 3 || big != small {
		t.Fatalf("DecodePartial allocates %.0f times for 3,531 rows and %.0f for one; want the same, at most 3", big, small)
	}
}

// TestQ3LegAllocs pins Q3's leg between the rows a shard's plan emits
// and the router's answer — the frame written, read and merged — at the
// same allocations for 3,531 base-set members (shard 1's leg in the
// mining_routed workload) as for one, and holds the frame to two bytes a
// member for the base set of a 12,000-page crawl, whole and split
// between two owners. query's TestQ3RowsAndMergeAllocs pins the rows
// themselves. Wired into make check-overhead.
func TestQ3LegAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		pages := make([]webgraph.PageID, n)
		for i := range pages {
			pages[i] = webgraph.PageID(100000 + 7*i)
		}
		p := PartialQueryResponse{Query: int(query.Q3), Shard: 1, Partials: []query.PartialRow{{Pages: pages}}}
		return testing.AllocsPerRun(20, func() {
			got, err := DecodePartial(encodePartial(&p))
			if err != nil {
				t.Fatal(err)
			}
			query.MergePartials(query.Q3, [][]query.PartialRow{got.Partials})
		})
	}
	big, small := allocs(3531), allocs(1)
	t.Logf("%.0f allocations at 3,531 members, %.0f at one", big, small)
	if big > 6 || big != small {
		t.Errorf("Q3's leg allocates %.0f times for 3,531 members and %.0f for one; want the same, at most 6", big, small)
	}

	crawl, err := synth.Generate(synth.DefaultConfig(12000))
	if err != nil {
		t.Fatal(err)
	}
	opt := repo.DefaultOptions(t.TempDir())
	opt.Schemes = []string{repo.SchemeSNode}
	opt.Layout = crawl.Order
	r, err := repo.Build(crawl.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := query.New(r, repo.SchemeSNode)
	if err != nil {
		t.Fatal(err)
	}
	mid := webgraph.PageID(len(r.Corpus.Pages) / 2)
	lo, hi := e.Shared(), e.Shared()
	lo.SetOwner(func(p webgraph.PageID) bool { return p < mid })
	hi.SetOwner(func(p webgraph.PageID) bool { return p >= mid })
	for name, eng := range map[string]*query.Engine{"whole": e, "lower half": lo, "upper half": hi} {
		res, err := eng.RunPartial(t.Context(), query.Q3)
		if err != nil {
			t.Fatal(err)
		}
		members := len(res.Rows[0].Pages)
		b := encodePartial(&PartialQueryResponse{Query: int(query.Q3), Partials: res.Rows})
		t.Logf("%s: %d members in %d bytes", name, members, len(b))
		if members < 100 || len(b) > 2*members {
			t.Errorf("%s: %d members in a %d-byte frame; want at least 100, at most 2 bytes each", name, members, len(b))
		}
	}
}
