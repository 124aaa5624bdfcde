package snode

import (
	"slices"
	"testing"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/refenc"
)

// Fuzz harnesses for the payload codec. Run continuously with
//
//	go test -fuzz=FuzzDecodeHostile ./internal/snode
//
// Under plain `go test` the seed corpus below still executes, so these
// double as regression tests for every crasher that gets minimized
// into testdata/fuzz/.

// listsFromBytes deterministically derives a strictly-increasing list
// set over [0, size) from raw fuzz bytes: byte i*size+v odd → v ∈ lists[i].
func listsFromBytes(data []byte, numLists int, size int32) [][]int32 {
	lists := make([][]int32, numLists)
	for i := 0; i < numLists; i++ {
		for v := int32(0); v < size; v++ {
			idx := i*int(size) + int(v)
			if idx < len(data) && data[idx]&1 == 1 {
				lists[i] = append(lists[i], v)
			}
		}
	}
	return lists
}

// FuzzCodecRoundTrip drives arbitrary list shapes through every payload
// kind and requires exact decode identity.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(9), []byte{})
	f.Add(uint8(16), uint8(23), []byte{0xFF, 0x00, 0xAB, 0x11, 0x7E})
	f.Add(uint8(1), uint8(1), []byte{1})
	f.Add(uint8(64), uint8(64), []byte("the quick brown fox jumps over the lazy dog"))
	opt := refenc.Options{Window: refenc.DefaultWindow}
	f.Fuzz(func(t *testing.T, nl, sz uint8, data []byte) {
		numLists := int(nl)%64 + 1
		size := int32(sz)%64 + 1
		// Intranode lists live in [0, numLists); target lists in [0, size).
		intra := listsFromBytes(data, numLists, int32(numLists))
		lists := listsFromBytes(data, numLists, size)
		srcs, nonEmpty := srcsAndLists(lists)
		niSize := int32(numLists)
		blob, err := encodePayload(nil, kindIntra, nil, intra, niSize, niSize, opt)
		if err != nil {
			t.Fatalf("encode intra: %v", err)
		}
		g, err := decodeWhole(kindIntra, blob, numLists, niSize, niSize)
		if err != nil {
			t.Fatalf("decode intra: %v", err)
		}
		if !listsEqual(rows(g.lists), intra) {
			t.Fatal("intra round trip mismatch")
		}

		blob, err = encodePayload(nil, kindSuperPos, srcs, nonEmpty, niSize, size, opt)
		if err != nil {
			t.Fatalf("encode superPos: %v", err)
		}
		if g, err = decodeWhole(kindSuperPos, blob, len(srcs), niSize, size); err != nil {
			t.Fatalf("decode superPos: %v", err)
		}
		if !listsEqual(rows(g.lists), nonEmpty) || len(g.srcs) != len(srcs) {
			t.Fatal("superPos round trip mismatch")
		}
		for i := range srcs {
			if g.srcs[i] != srcs[i] {
				t.Fatalf("superPos src %d mismatch", i)
			}
		}

		blob, err = encodePayload(nil, kindSuperNeg, nil, lists, niSize, size, opt)
		if err != nil {
			t.Fatalf("encode superNeg: %v", err)
		}
		if g, err = decodeWhole(kindSuperNeg, blob, numLists, niSize, size); err != nil {
			t.Fatalf("decode superNeg: %v", err)
		}
		if !listsEqual(rows(g.lists), lists) {
			t.Fatal("superNeg round trip mismatch")
		}
	})
}

// seedSink is what the seed builders below need of a *testing.F, so that
// TestHostileVerdictsEqualParents can collect the same seeds.
type seedSink interface {
	Add(args ...any)
	Fatal(args ...any)
}

// hostileSeeds adds the whole committed corpus of FuzzDecodeHostile.
func hostileSeeds(f seedSink) {
	for _, kind := range []uint8{kindIntra, kindSuperPos, kindSuperNeg} {
		hostileSeed(f, kind)
	}
	overflowSeeds(f)
	hugeCountSeeds(f)
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
}

// hostileSeed builds a valid encoding so the fuzzer starts from
// structurally interesting bytes rather than pure noise.
func hostileSeed(f seedSink, kind uint8) {
	opt := refenc.Options{Window: refenc.DefaultWindow}
	// Seven lists over [0,7): a valid shape for all three kinds (intra
	// lists live in [0, len(lists))).
	lists := [][]int32{{0, 2, 5}, {}, {1, 3, 4, 6}, {6}, {}, {0}, {2, 3}}
	var srcs []int32
	if kind == kindSuperPos {
		srcs, lists = srcsAndLists(lists)
	}
	blob, err := encodePayload(nil, kind, srcs, lists, 7, 7, opt)
	if err != nil {
		f.Fatal(err)
	}
	// 6 → numLists/size 7 after the fuzz body's %128+1 mapping, so the
	// seed decodes cleanly and exercises the bounds oracle.
	f.Add(kind, uint8(6), uint8(6), blob)
}

// overflowSeeds are minimized crashers for the signed-overflow hole the
// fused bounds checks close: a coded gap of 2^63+5 makes int64(g)
// negative, slips past a bare nv >= bound comparison, and int32
// truncation emits an in-range-looking local ID (e.g. [0 5] under bound
// 1). Committed as f.Add seeds so plain `go test` — the test-codec gate
// — replays them against the bounds oracle on every run.
func overflowSeeds(f seedSink) {
	const hugeGap = uint64(1)<<63 + 5

	// superPos: two sources under niSize 2 with a gamma gap
	// of 2^63+5 (exercises coding.ReadBoundedGapList), followed by two
	// valid empty target lists so a decoder that accepts the corrupt
	// sources still returns them to the oracle.
	w := bitio.NewWriter(0)
	coding.WriteMinimalBinary(w, 0, 2)
	coding.WriteGamma(w, hugeGap)
	if _, err := refenc.EncodeLists(w, [][]int32{{}, {}}, refenc.Options{TargetBound: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(kindSuperPos, uint8(1), uint8(0), w.Bytes())

	// superNeg: one direct refenc list of two values under
	// bound 1 whose gap is 2^63+5 (exercises refenc.readRun).
	w = bitio.NewWriter(0)
	w.WriteBit(0)                           // window strategy
	w.WriteBits(uint64(refenc.GapGamma), 2) // gap code
	coding.WriteGamma0(w, 0)                // no reference
	coding.WriteGamma0(w, 2)                // degree 2
	coding.WriteMinimalBinary(w, 0, 1)      // first value: zero bits under bound 1
	coding.WriteGamma(w, hugeGap)           // corrupt gap
	f.Add(kindSuperNeg, uint8(0), uint8(0), w.Bytes())
}

// hugeCountSeeds are minimized crashers for the two holes an unsigned
// count converted to int left in refenc's decoder, as payloads: a
// reference designator of 2^64-2 on list 0 turned negative,
// passed the j < 0 check and indexed lists[2] of a one-list graph (a
// panic); a degree of 2^63 turned negative, skipped the run loop and
// came back as a one-value list (a silent success).
func hugeCountSeeds(f seedSink) {
	header := func() *bitio.Writer {
		w := bitio.NewWriter(0)
		w.WriteBit(0)                           // window strategy
		w.WriteBits(uint64(refenc.GapGamma), 2) // gap code
		return w
	}
	for _, kind := range []uint8{kindIntra, kindSuperNeg} {
		w := header()
		coding.WriteGamma0(w, 1<<64-2) // list 0 references list 0-(2^64-2)
		coding.WriteGamma0(w, 0)
		f.Add(kind, uint8(0), uint8(0), w.Bytes())

		w = header()
		coding.WriteGamma0(w, 0)     // no reference
		coding.WriteGamma0(w, 1<<63) // degree 2^63
		coding.WriteGamma(w, 1)
		f.Add(kind, uint8(0), uint8(0), w.Bytes())

		w = bitio.NewWriter(0)
		w.WriteBit(1) // exact strategy
		w.WriteBits(uint64(refenc.GapGamma), 2)
		coding.WriteMinimalBinary(w, 0, 1) // node index of position 0
		coding.WriteGamma0(w, 1<<64-2)     // position 0 references position 0-(2^64-2)
		coding.WriteGamma0(w, 0)
		f.Add(kind, uint8(0), uint8(0), w.Bytes())
	}
}

// FuzzDecodeHostile feeds arbitrary bytes to the payload decoders and
// requires: no panic, and — whenever a decode still succeeds — every
// emitted local ID inside its declared space (checkLocalIDs is the
// oracle for the fused bounds checks); the cache's encoded state decoded
// whole or one list at a time agrees with the one-shot decode.
func FuzzDecodeHostile(f *testing.F) {
	hostileSeeds(f)
	f.Fuzz(func(t *testing.T, kind, nl, sz uint8, blob []byte) {
		numLists := int(nl)%128 + 1
		niSize, size := int32(numLists), int32(sz)%128+1
		kind = hostileKind(kind)
		g, err := decodeWhole(kind, blob, numLists, niSize, size)
		bound := size
		if kind == kindIntra {
			bound = niSize
		}
		if err == nil {
			if oerr := checkLocalIDs(g.srcs, niSize); oerr != nil {
				t.Fatalf("kind %d: sources out of bounds: %v", kind, oerr)
			}
			if oerr := checkLocalIDs(g.lists.IDs, bound); oerr != nil {
				t.Fatalf("kind %d: decode accepted out-of-bounds IDs: %v", kind, oerr)
			}
		}
		// The serving path's encoded state — a positive superedge graph's
		// sources now, lists later from a private copy of the payload —
		// must agree with the one-shot decode. Decoded whole: the same
		// graph, or an error from both. A list at a time: every page's
		// list inside its bound, refused once a list before it was (each
		// is decoded with every list before it), and, whenever the
		// one-shot decode succeeded, that decode's list of the page.
		sg, serr := newGraph(kind, blob, numLists, niSize, size)
		var full *graph
		if serr == nil {
			full, serr = sg.materialize()
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("one-shot decode: %v; encoded then whole: %v", err, serr)
		}
		if err == nil && !sameGraph(full, g) {
			t.Fatalf("encoded then whole decoded %+v, one-shot %+v", full, g)
		}
		if sg == nil {
			return // the sources did not decode: no list can be asked for
		}
		refused := -1 // the first list refused, pages in ascending order listing lists in ascending order
		for local := int32(0); local < niSize; local++ {
			k := sg.listOf(local)
			if k < 0 {
				continue
			}
			got, _, lerr := sg.appendList(k, nil)
			if lerr == nil {
				if oerr := checkLocalIDs(got, bound); oerr != nil {
					t.Fatalf("list of page %d out of bounds: %v", local, oerr)
				}
				if refused >= 0 {
					t.Fatalf("list %d decoded alone after list %d was refused", k, refused)
				}
			} else if refused < 0 {
				refused = k
			}
			if err != nil {
				continue
			}
			want := appendTargets(g, local, nil)
			if lerr != nil || !slices.Equal(got, want) {
				t.Fatalf("page %d's list alone: %v %v; in the one-shot decode %v", local, got, lerr, want)
			}
		}
	})
}

// sameGraph reports whether two whole decoded graphs are of one kind and
// ID space and hold the same sources and lists.
func sameGraph(a, b *graph) bool {
	return a.whole && b.whole && a.kind == b.kind && a.bound == b.bound &&
		slices.Equal(a.srcs, b.srcs) && listsEqual(rows(a.lists), rows(b.lists))
}

// hostileKind is the payload kind a fuzz input's kind byte selects: the
// two low residues are intranode and superPos, everything else superNeg.
func hostileKind(b uint8) uint8 {
	switch b % 3 {
	case kindIntra, kindSuperPos:
		return b % 3
	}
	return kindSuperNeg
}
