package serve

import (
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"snode/internal/coding"
	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/shard"
	"snode/internal/snode"
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
		if g.Group != w.Group || g.Key != w.Key || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
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

// frame lays down a partial frame field by field, so a test can write
// one the encoder never would.
func frame(version, q uint64, shardID int64, rows uint64, fields ...string) []byte {
	w := coding.NewBuffer(nil)
	w.Uvarint(version)
	w.Uvarint(q)
	w.Varint(shardID)
	w.U64(math.Float64bits(1.5))
	w.Uvarint(rows)
	for i, f := range fields {
		w.Str(f)
		if i%2 == 1 {
			w.U64(math.Float64bits(float64(i)))
		}
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
	q3 := frame(partialVersion, 3, 1, 3, "", "12", "", "40", "", "977")
	q4 := frame(partialVersion, 4, 0, 2, "mit.edu", "mit.edu http://mit.edu/qc/1.html", "caltech.edu", "caltech.edu http://caltech.edu/q.html")
	return []partialSeed{
		{"valid-q3", "", q3},
		{"valid-q4", "", q4},
		{"ends-inside-a-str", "count 37, at 1 bytes each, needs more than the 27 bytes left", q4[:len(q4)-18]},
		{"row-count-the-bytes-cannot-hold", "count 1000, at 10 bytes each, needs more than the 0 bytes left", frame(partialVersion, 3, 0, 1000)},
		{"trailing-byte", "1 bytes after the last field", append(append([]byte(nil), q3...), 0)},
		{"unknown-version", "version 2, want 1", frame(2, 3, 0, 0)},
		{"query-0", "query 0 not in 1..6", frame(partialVersion, 0, 0, 0)},
		{"query-7", "query 7 not in 1..6", frame(partialVersion, 7, 0, 0)},
		{"negative-shard", "shard -1", frame(partialVersion, 3, -1, 0)},
	}
}

// TestDecodePartialRefusals: each bad seed is refused by name, each
// valid one read.
func TestDecodePartialRefusals(t *testing.T) {
	for _, c := range partialSeeds() {
		p, err := DecodePartial(c.b)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want == "" && len(p.Partials) == 0:
			t.Errorf("%s: read no rows", c.name)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodePartial: whatever the bytes, DecodePartial neither panics
// nor allocates beyond a multiple of them; it refuses them by name, or
// returns a response whose query and shard pass its checks, which
// encodes and decodes back to itself. Seeds: partialSeeds (committed
// under testdata/fuzz as well) and every strict prefix of the valid
// ones.
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
			if p.Query < 1 || p.Query > 6 || p.Shard < 0 || len(p.Partials)*partialRowMin > len(raw) {
				t.Fatalf("accepted Q%d shard %d with %d rows from %d bytes", p.Query, p.Shard, len(p.Partials), len(raw))
			}
			again, err := DecodePartial(encodePartial(&p))
			if err != nil {
				t.Fatalf("re-encoded frame refused: %v", err)
			}
			if diff := samePartial(again, p); diff != "" {
				t.Fatalf("re-encoded frame differs at %s", diff)
			}
		}
		// The string made from the bytes, and a 40-byte row for every 10
		// bytes at least one takes; 16 KiB for the rest, the fuzzing
		// engine's own goroutines included.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+5*len(raw)); alloc > limit {
			t.Fatalf("a %d-byte frame made DecodePartial allocate %d bytes (limit %d)", len(raw), alloc, limit)
		}
	})
}

// TestDecodePartialAllocs pins the decode at a fixed number of
// allocations whatever the row count — the string made from the body and
// the row slice, not one a field — at the size of shard 1's Q3 leg in
// the mining_routed workload (3,531 rows) and at one row. Wired into make
// check-overhead.
func TestDecodePartialAllocs(t *testing.T) {
	allocsFor := func(rows int) float64 {
		p := PartialQueryResponse{Query: 3, Shard: 1, NavMS: 3.5}
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
