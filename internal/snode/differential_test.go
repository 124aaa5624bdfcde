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

// hashGraph folds any decoded graph into h.
func hashGraph(t testing.TB, h hash.Hash, g decodedGraph) {
	t.Helper()
	switch sg := g.(type) {
	case *decodedIntra:
		hashRows(h, nil, rows(sg.lists))
	case *decodedSuperPos:
		hashRows(h, sg.srcs, rows(sg.lists))
	case *decodedSuperNeg:
		hashRows(h, []int32{sg.njSize}, rows(sg.lists))
	default:
		t.Fatalf("decoded a %T", g)
	}
}

// parentRows are the digests, taken at the parent commit, of every
// graph of the 400-page fixture decoded by each codec, per payload
// kind, in directory order.
var parentRows = map[string]string{
	"paper/intra":     "fdbda62ed06fa8ae",
	"paper/super_pos": "95f524a77e3e8f2e",
	"paper/super_neg": "170911eae470b351",
	"log/intra":       "fdbda62ed06fa8ae",
	"log/super_pos":   "95f524a77e3e8f2e",
	"log/super_neg":   "170911eae470b351",
}

// TestDecodedRowsEqualParents decodes every payload of the 400-page
// fixture under every codec and compares the rows with the parent's.
func TestDecodedRowsEqualParents(t *testing.T) {
	got := map[string]string{}
	for _, codec := range CodecNames() {
		dir := buildCodecRep(t, codec, 400)
		r, err := Open(dir, 1<<20, iosim.Model2002())
		if err != nil {
			t.Fatal(err)
		}
		hashes := map[uint8]hash.Hash{kindIntra: sha256.New(), kindSuperPos: sha256.New(), kindSuperNeg: sha256.New()}
		for gid := range r.m.Directory {
			e := &r.m.Directory[gid]
			buf := make([]byte, e.NumBytes)
			if _, err := r.files[e.File].ReadAt(buf, e.Offset); err != nil {
				t.Fatal(err)
			}
			g, err := r.decodePayload(e, buf)
			if err != nil {
				t.Fatalf("%s graph %d: %v", codec, gid, err)
			}
			hashGraph(t, hashes[e.Kind], g)
		}
		r.Close()
		for kind, h := range hashes {
			got[codec+"/"+kindName(kind)] = hex.EncodeToString(h.Sum(nil)[:8])
		}
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
	id, kind, nl, sz uint8
	blob             []byte
}

// seedCollector gathers what the seed builders of FuzzDecodeHostile add.
type seedCollector struct {
	t     *testing.T
	cases []hostileCase
}

func (c *seedCollector) Add(args ...any) {
	c.cases = append(c.cases, hostileCase{args[0].(uint8), args[1].(uint8), args[2].(uint8), args[3].(uint8), args[4].([]byte)})
}

func (c *seedCollector) Fatal(args ...any) { c.t.Fatal(args...) }

// verdict decodes one hostile input the way FuzzDecodeHostile does and
// reports whether the decoder accepted it, folding what it decoded into
// h when it did.
func (hc hostileCase) verdict(t *testing.T, h hash.Hash) bool {
	numLists := int(hc.nl)%128 + 1
	g, err := decodeGraph(codecTable[int(hc.id)%numCodecs], hostileKind(hc.kind), hc.blob, numLists, int32(numLists), int32(hc.sz)%128+1)
	if err != nil {
		h.Write([]byte{0})
		return false
	}
	h.Write([]byte{1})
	hashGraph(t, h, g)
	return true
}

// parentVerdicts is what the parent's decoders said of each committed
// seed of FuzzDecodeHostile, in the order hostileSeeds adds them: the
// seed's codec and kind, A (accepted) or R (refused — the superPos seeds
// are refused because the fuzz body asks for seven sources where the
// seed has five), the digest of what an accepted seed decoded to, and
// the digest of the verdicts, and of the rows of every accepted input,
// over the seed with each single bit flipped in turn. The values were
// taken seed by seed at the parent of the PR that retired codec/lz: its
// four seeds left with it, the first sixteen lines are the parent's
// other sixteen, and the last four are logShapeSeeds, new with that PR
// and run through the parent's decoders like the rest.
var parentVerdicts = []string{
	"paper/intra A bc41dcbaee1ba6eb a201638ac4c65c15",
	"paper/super_pos R - f5a5fd42d16a2030",
	"paper/super_neg A 4302503996347a28 44746c30712f5f3c",
	"log/intra A bc41dcbaee1ba6eb f40c05e2a45d9d18",
	"log/super_pos R - d4817aa5497628e7",
	"log/super_neg A 4302503996347a28 7c41307e547a1c80",
	"paper/super_pos R - b707241545a34626",
	"paper/super_neg R - 8bd3960dd33520db",
	"paper/intra R - b707241545a34626",
	"paper/intra R - db15a87d47665a58",
	"paper/intra R - b707241545a34626",
	"paper/super_neg R - b707241545a34626",
	"paper/super_neg R - b15f66580ee62f9e",
	"paper/super_neg R - b707241545a34626",
	"paper/super_neg R - e3b0c44298fc1c14",
	"log/intra R - 2c34ce1df23b838c",
	"log/super_neg R - d73a3d549619decf",
	"log/super_neg R - cdb9afb1663f5e62",
	"log/super_pos R - af5570f5a1810b7a",
	"log/super_neg A 77a01fec7cd1f30c 87bb388df18f583b",
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
		got = append(got, fmt.Sprintf("%s/%s %s %s %s", codecTable[int(hc.id)%numCodecs].Name(),
			kindName(hostileKind(hc.kind)), letter, digest, hex.EncodeToString(near.Sum(nil)[:8])))
	}
	if !slices.Equal(got, parentVerdicts) {
		t.Errorf("hostile seeds decode to\n\t%s\nthe parent's decoders gave\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(parentVerdicts, "\n\t"))
	}
}
