package snode

import (
	"slices"
	"testing"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/refenc"
)

// Fuzz harnesses for the codec layer. Run continuously with
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

// FuzzCodecRoundTrip drives arbitrary list shapes through every codec
// and payload kind and requires exact decode identity.
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
		for _, cd := range keptCodecs() {
			blob, err := encodePayload(cd, nil, kindIntra, nil, intra, niSize, niSize, opt)
			if err != nil {
				t.Fatalf("%s: encode intra: %v", cd.Name(), err)
			}
			g, err := decodeGraph(cd, kindIntra, blob, numLists, niSize, niSize)
			if err != nil {
				t.Fatalf("%s: decode intra: %v", cd.Name(), err)
			}
			if !listsEqual(rows(g.(*decodedIntra).lists), intra) {
				t.Fatalf("%s: intra round trip mismatch", cd.Name())
			}

			blob, err = encodePayload(cd, nil, kindSuperPos, srcs, nonEmpty, niSize, size, opt)
			if err != nil {
				t.Fatalf("%s: encode superPos: %v", cd.Name(), err)
			}
			if g, err = decodeGraph(cd, kindSuperPos, blob, len(srcs), niSize, size); err != nil {
				t.Fatalf("%s: decode superPos: %v", cd.Name(), err)
			}
			gp := g.(*decodedSuperPos)
			if !listsEqual(rows(gp.lists), nonEmpty) || len(gp.srcs) != len(srcs) {
				t.Fatalf("%s: superPos round trip mismatch", cd.Name())
			}
			for i := range srcs {
				if gp.srcs[i] != srcs[i] {
					t.Fatalf("%s: superPos src %d mismatch", cd.Name(), i)
				}
			}

			blob, err = encodePayload(cd, nil, kindSuperNeg, nil, lists, niSize, size, opt)
			if err != nil {
				t.Fatalf("%s: encode superNeg: %v", cd.Name(), err)
			}
			if g, err = decodeGraph(cd, kindSuperNeg, blob, numLists, niSize, size); err != nil {
				t.Fatalf("%s: decode superNeg: %v", cd.Name(), err)
			}
			if !listsEqual(rows(g.(*decodedSuperNeg).lists), lists) {
				t.Fatalf("%s: superNeg round trip mismatch", cd.Name())
			}
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
	for _, cd := range keptCodecs() {
		for _, kind := range []uint8{kindIntra, kindSuperPos, kindSuperNeg} {
			hostileSeed(f, cd, kind)
		}
	}
	overflowSeeds(f)
	hugeCountSeeds(f)
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(2), uint8(1), uint8(255), uint8(255), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	logShapeSeeds(f)
}

// logShapeSeeds are hand-built codec/log payloads for the branches of
// its run decoder that no valid encoding and no other committed seed
// names: a degree past any plausible list, a degree past the bound at
// gap width 0 (every residual is then +1, and the bound stops the run),
// a source residual that steps over the bound, and — accepted — a full
// list, which costs no bits after its degree and gap width.
func logShapeSeeds(f seedSink) {
	w := bitio.NewWriter(0)
	coding.WriteGamma0(w, 1<<40) // superNeg, one list under bound 8
	f.Add(codecIDLog, kindSuperNeg, uint8(0), uint8(7), w.Bytes())

	w = bitio.NewWriter(0)
	coding.WriteGamma0(w, 100) // superNeg, one list under bound 4
	w.WriteBits(0, 2)          // gap width 0; the first value took no bits
	f.Add(codecIDLog, kindSuperNeg, uint8(0), uint8(3), w.Bytes())

	w = bitio.NewWriter(0)
	w.WriteBits(2, 2) // superPos, three sources under niSize 3: first is 0 at no bits, gap width 2
	w.WriteBits(3, 2) // residual 3: the second source would be 4
	f.Add(codecIDLog, kindSuperPos, uint8(2), uint8(0), w.Bytes())

	w = bitio.NewWriter(0)
	coding.WriteGamma0(w, 4) // superNeg, one list under bound 4: {0,1,2,3}
	w.WriteBits(0, 2)        // gap width 0
	f.Add(codecIDLog, kindSuperNeg, uint8(0), uint8(3), w.Bytes())
}

// hostileSeed builds a valid encoding so the fuzzer starts from
// structurally interesting bytes rather than pure noise.
func hostileSeed(f seedSink, cd Codec, kind uint8) {
	opt := refenc.Options{Window: refenc.DefaultWindow}
	// Seven lists over [0,7): a valid shape for all three kinds (intra
	// lists live in [0, len(lists))).
	lists := [][]int32{{0, 2, 5}, {}, {1, 3, 4, 6}, {6}, {}, {0}, {2, 3}}
	var srcs []int32
	if kind == kindSuperPos {
		srcs, lists = srcsAndLists(lists)
	}
	blob, err := encodePayload(cd, nil, kind, srcs, lists, 7, 7, opt)
	if err != nil {
		f.Fatal(err)
	}
	// 6 → numLists/size 7 after the fuzz body's %128+1 mapping, so the
	// seed decodes cleanly and exercises the bounds oracle.
	f.Add(cd.ID(), kind, uint8(6), uint8(6), blob)
}

// overflowSeeds are minimized crashers for the signed-overflow hole the
// fused bounds checks close: a coded gap of 2^63+5 makes int64(g)
// negative, slips past a bare nv >= bound comparison, and int32
// truncation emits an in-range-looking local ID (e.g. [0 5] under bound
// 1). Committed as f.Add seeds so plain `go test` — the test-codec gate
// — replays them against the bounds oracle on every run.
func overflowSeeds(f seedSink) {
	const hugeGap = uint64(1)<<63 + 5

	// codec/paper superPos: two sources under niSize 2 with a gamma gap
	// of 2^63+5 (exercises coding.ReadBoundedGapList), followed by two
	// valid empty target lists so a decoder that accepts the corrupt
	// sources still returns them to the oracle.
	w := bitio.NewWriter(0)
	coding.WriteMinimalBinary(w, 0, 2)
	coding.WriteGamma(w, hugeGap)
	if _, err := refenc.EncodeLists(w, [][]int32{{}, {}}, refenc.Options{TargetBound: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(codecIDPaper, kindSuperPos, uint8(1), uint8(0), w.Bytes())

	// codec/paper superNeg: one direct refenc list of two values under
	// bound 1 whose gap is 2^63+5 (exercises refenc.readRun).
	w = bitio.NewWriter(0)
	w.WriteBit(0)                           // window strategy
	w.WriteBits(uint64(refenc.GapGamma), 2) // gap code
	coding.WriteGamma0(w, 0)                // no reference
	coding.WriteGamma0(w, 2)                // degree 2
	coding.WriteMinimalBinary(w, 0, 1)      // first value: zero bits under bound 1
	coding.WriteGamma(w, hugeGap)           // corrupt gap
	f.Add(codecIDPaper, kindSuperNeg, uint8(0), uint8(0), w.Bytes())
}

// hugeCountSeeds are minimized crashers for the two holes an unsigned
// count converted to int left in refenc's decoder, as codec/paper
// payloads: a reference designator of 2^64-2 on list 0 turned negative,
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
		f.Add(codecIDPaper, kind, uint8(0), uint8(0), w.Bytes())

		w = header()
		coding.WriteGamma0(w, 0)     // no reference
		coding.WriteGamma0(w, 1<<63) // degree 2^63
		coding.WriteGamma(w, 1)
		f.Add(codecIDPaper, kind, uint8(0), uint8(0), w.Bytes())

		w = bitio.NewWriter(0)
		w.WriteBit(1) // exact strategy
		w.WriteBits(uint64(refenc.GapGamma), 2)
		coding.WriteMinimalBinary(w, 0, 1) // node index of position 0
		coding.WriteGamma0(w, 1<<64-2)     // position 0 references position 0-(2^64-2)
		coding.WriteGamma0(w, 0)
		f.Add(codecIDPaper, kind, uint8(0), uint8(0), w.Bytes())
	}
}

// FuzzDecodeHostile feeds arbitrary bytes to every codec's decoders and
// requires: no panic, and — whenever a decode still succeeds — every
// emitted local ID inside its declared space (checkLocalIDs is the
// oracle for the fused bounds checks); the cache's encoded state decoded
// whole or one list at a time agrees with the one-shot decode.
func FuzzDecodeHostile(f *testing.F) {
	hostileSeeds(f)
	f.Fuzz(func(t *testing.T, id, kind, nl, sz uint8, blob []byte) {
		cd := codecTable[int(id)%numCodecs]
		if cd == nil {
			return // the retired wire ID: Open refuses it, nothing decodes it
		}
		numLists := int(nl)%128 + 1
		niSize, size := int32(numLists), int32(sz)%128+1
		kind = hostileKind(kind)
		g, err := decodeGraph(cd, kind, blob, numLists, niSize, size)
		if err == nil {
			switch sg := g.(type) {
			case *decodedIntra:
				if oerr := checkLocalIDs(sg.lists.IDs, niSize); oerr != nil {
					t.Fatalf("%s: intra decode accepted out-of-bounds IDs: %v", cd.Name(), oerr)
				}
			case *decodedSuperPos:
				if oerr := checkLocalIDs(sg.srcs, niSize); oerr != nil {
					t.Fatalf("%s: superPos srcs out of bounds: %v", cd.Name(), oerr)
				}
				if oerr := checkLocalIDs(sg.lists.IDs, size); oerr != nil {
					t.Fatalf("%s: superPos lists out of bounds: %v", cd.Name(), oerr)
				}
			case *decodedSuperNeg:
				if oerr := checkLocalIDs(sg.lists.IDs, size); oerr != nil {
					t.Fatalf("%s: superNeg decode accepted out-of-bounds IDs: %v", cd.Name(), oerr)
				}
			}
		}
		// The serving path's encoded state — a positive superedge graph's
		// sources now, lists later from a private copy of the payload —
		// must agree with the one-shot decode. Decoded whole: the same
		// graph, or an error from both. A list at a time: every page's
		// list inside its bound, refused once a list before it was (each
		// is decoded with every list before it), and, whenever the
		// one-shot decode succeeded, that decode's list of the page.
		sg, serr := newEncodedGraph(cd, kind, blob, numLists, niSize, size)
		var full decodedGraph
		if serr == nil {
			full, serr = sg.materialize()
		}
		if (err == nil) != (serr == nil) {
			t.Fatalf("%s: one-shot decode: %v; encoded then whole: %v", cd.Name(), err, serr)
		}
		if err == nil && !sameGraph(full, g) {
			t.Fatalf("%s: encoded then whole decoded %+v, one-shot %+v", cd.Name(), full, g)
		}
		if sg == nil {
			return // the sources did not decode: no list can be asked for
		}
		bound := size
		if kind == kindIntra {
			bound = niSize
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
					t.Fatalf("%s: list of page %d out of bounds: %v", cd.Name(), local, oerr)
				}
				if refused >= 0 {
					t.Fatalf("%s: list %d decoded alone after list %d was refused", cd.Name(), k, refused)
				}
			} else if refused < 0 {
				refused = k
			}
			if err != nil {
				continue
			}
			want, _ := appendTargets(g, local, nil)
			if lerr != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: page %d's list alone: %v %v; in the one-shot decode %v", cd.Name(), local, got, lerr, want)
			}
		}
	})
}

// sameGraph reports whether two whole decoded graphs hold the same
// sources and lists.
func sameGraph(a, b decodedGraph) bool {
	switch x := a.(type) {
	case *decodedIntra:
		y, ok := b.(*decodedIntra)
		return ok && listsEqual(rows(x.lists), rows(y.lists))
	case *decodedSuperPos:
		y, ok := b.(*decodedSuperPos)
		return ok && slices.Equal(x.srcs, y.srcs) && listsEqual(rows(x.lists), rows(y.lists))
	case *decodedSuperNeg:
		y, ok := b.(*decodedSuperNeg)
		return ok && x.njSize == y.njSize && listsEqual(rows(x.lists), rows(y.lists))
	}
	return false
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
