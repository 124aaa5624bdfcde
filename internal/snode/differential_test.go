package snode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strings"
	"testing"

	"snode/internal/iosim"
)

// Differential tests against the decoders this package had before the
// decode path was rebuilt (one-window gamma kernels, flat decoded lists):
// what they decoded, and which hostile inputs they refused, was recorded
// at the parent commit and is held here as golden values. A kernel or
// decoded-form change that alters a single decoded ID, or accepts one
// input the parent refused (or the reverse), changes a digest below.

// hashRows folds a decoded graph into h: the sources, when it has them,
// then every list with its length.
func hashRows(h hash.Hash, srcs []int32, lists [][]int32) {
	put := func(v int32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	put(int32(len(srcs)))
	for _, s := range srcs {
		put(s)
	}
	put(int32(len(lists)))
	for _, l := range lists {
		put(int32(len(l)))
		for _, v := range l {
			put(v)
		}
	}
}

// hashGraph folds a whole graph into h: its sources and lists, with a
// negative graph's ID space in place of the sources it does not have.
func hashGraph(h hash.Hash, g *graph) {
	head := g.srcs
	if g.kind == kindSuperNeg {
		head = []int32{g.bound}
	}
	hashRows(h, head, rows(g.lists))
}

// parentRows are the digests, taken at the parent commit, of every
// graph of the 400-page fixture, per payload kind, in directory order.
var parentRows = map[string]string{
	"paper/intra":     "fdbda62ed06fa8ae",
	"paper/super_pos": "95f524a77e3e8f2e",
	"paper/super_neg": "170911eae470b351",
}

// TestDecodedRowsEqualParents decodes every payload of the 400-page
// fixture and compares the rows with the parent's.
func TestDecodedRowsEqualParents(t *testing.T) {
	r, err := Open(buildTestRep(t, 400), 1<<20, iosim.Model2002())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hashes := map[uint8]hash.Hash{kindIntra: sha256.New(), kindSuperPos: sha256.New(), kindSuperNeg: sha256.New()}
	for gid := range r.m.Directory {
		e := &r.m.Directory[gid]
		buf := make([]byte, e.NumBytes)
		if _, err := r.files[e.File].ReadAt(buf, e.Offset); err != nil {
			t.Fatal(err)
		}
		g, err := r.decodePayload(e, buf)
		if err != nil {
			t.Fatalf("graph %d: %v", gid, err)
		}
		hashGraph(hashes[e.Kind], g)
	}
	got := map[string]string{}
	for kind, h := range hashes {
		got["paper/"+kindName(kind)] = hex.EncodeToString(h.Sum(nil)[:8])
	}
	reportGolden(t, "parentRows", got, parentRows)
}

// reportGolden fails on any difference between what this commit decodes
// and what was recorded at the parent; the message carries the value to
// record, which is how the tables in this file were taken there (with
// rows() the identity on the parent's [][]int32).
func reportGolden(t *testing.T, name string, got, want map[string]string) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s[%q] = %q, the parent's decoders gave %q", name, k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d values, %d recorded", name, len(got), len(want))
	}
}

// hostileCase is one input of FuzzDecodeHostile.
type hostileCase struct {
	kind, nl, sz uint8
	blob         []byte
}

// seedCollector gathers what the seed builders of FuzzDecodeHostile add.
type seedCollector struct {
	t     *testing.T
	cases []hostileCase
}

func (c *seedCollector) Add(args ...any) {
	c.cases = append(c.cases, hostileCase{args[0].(uint8), args[1].(uint8), args[2].(uint8), args[3].([]byte)})
}

func (c *seedCollector) Fatal(args ...any) { c.t.Fatal(args...) }

// verdict decodes one hostile input the way FuzzDecodeHostile does and
// reports whether the decoder accepted it, folding what it decoded into
// h when it did.
func (hc hostileCase) verdict(t *testing.T, h hash.Hash) bool {
	numLists := int(hc.nl)%128 + 1
	g, err := decodeWhole(hostileKind(hc.kind), hc.blob, numLists, int32(numLists), int32(hc.sz)%128+1)
	if err != nil {
		h.Write([]byte{0})
		return false
	}
	h.Write([]byte{1})
	hashGraph(h, g)
	return true
}

// parentVerdicts is what the parent's decoders said of each committed
// seed of FuzzDecodeHostile, in the order hostileSeeds adds them: the
// codec and the seed's kind, A (accepted) or R (refused — the superPos seeds
// are refused because the fuzz body asks for seven sources where the
// seed has five), the digest of what an accepted seed decoded to, and
// the digest of the verdicts, and of the rows of every accepted input,
// over the seed with each single bit flipped in turn. The values were
// taken seed by seed at the parent of the PR that retired codec/lz, whose
// seeds left with it; the seeds of codec/log left with that codec.
var parentVerdicts = []string{
	"paper/intra A bc41dcbaee1ba6eb a201638ac4c65c15",
	"paper/super_pos R - f5a5fd42d16a2030",
	"paper/super_neg A 4302503996347a28 44746c30712f5f3c",
	"paper/super_pos R - b707241545a34626",
	"paper/super_neg R - 8bd3960dd33520db",
	"paper/intra R - b707241545a34626",
	"paper/intra R - db15a87d47665a58",
	"paper/intra R - b707241545a34626",
	"paper/super_neg R - b707241545a34626",
	"paper/super_neg R - b15f66580ee62f9e",
	"paper/super_neg R - b707241545a34626",
	"paper/super_neg R - e3b0c44298fc1c14",
}

func TestHostileVerdictsEqualParents(t *testing.T) {
	seeds := &seedCollector{t: t}
	hostileSeeds(seeds)
	var got []string
	for _, hc := range seeds.cases {
		rowsOfAccepted, near := sha256.New(), sha256.New()
		letter, digest := "R", "-"
		if hc.verdict(t, rowsOfAccepted) {
			letter, digest = "A", hex.EncodeToString(rowsOfAccepted.Sum(nil)[:8])
		}
		for bit := 0; bit < len(hc.blob)*8; bit++ {
			flipped := hc
			flipped.blob = append([]byte(nil), hc.blob...)
			flipped.blob[bit>>3] ^= 1 << (7 - uint(bit&7))
			flipped.verdict(t, near)
		}
		got = append(got, fmt.Sprintf("paper/%s %s %s %s", kindName(hostileKind(hc.kind)), letter, digest, hex.EncodeToString(near.Sum(nil)[:8])))
	}
	if !slices.Equal(got, parentVerdicts) {
		t.Errorf("hostile seeds decode to\n\t%s\nthe parent's decoders gave\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(parentVerdicts, "\n\t"))
	}
}
