package refenc

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"snode/internal/bitio"
	"snode/internal/coding"
	"snode/internal/raceflag"
	"snode/internal/randutil"
)

// testBound is the TargetBound of the tests that are not about bounds:
// above every target randomLists and the fixed samples produce.
const testBound = 1 << 10

// roundTrip encodes lists under opt — under testBound when opt names no
// bound — and checks that they decode to themselves.
func roundTrip(t *testing.T, lists [][]int32, opt Options) Stats {
	t.Helper()
	if opt.TargetBound == 0 {
		opt.TargetBound = testBound
	}
	w := bitio.NewWriter(0)
	st, err := EncodeLists(w, lists, opt)
	if err != nil {
		t.Fatalf("EncodeLists: %v", err)
	}
	r := bitio.NewReader(w.Bytes(), w.BitLen())
	got, err := DecodeListsBounded(r, len(lists), opt.TargetBound)
	if err != nil {
		t.Fatalf("DecodeListsBounded: %v", err)
	}
	if !sameLists(got, lists) {
		t.Fatalf("%+v: decoded %v, want %v", opt, got, lists)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%+v: %d bits left after the last list", opt, r.Remaining())
	}
	return st
}

// sameLists reports whether a decoded set holds exactly the given rows.
func sameLists(got Lists, want [][]int32) bool {
	if got.Len() != len(want) {
		return false
	}
	for i, l := range want {
		if !slices.Equal(got.At(i), l) {
			return false
		}
	}
	return true
}

var sampleLists = [][]int32{
	{3, 7, 12, 15, 20},
	{3, 12, 15, 18, 20}, // similar to list 0 — should be referenced
	{},
	{0},
	{3, 7, 12, 15, 20}, // identical to list 0
	{100, 200, 300},
}

func TestWindowRoundTrip(t *testing.T) {
	st := roundTrip(t, sampleLists, Options{Window: DefaultWindow})
	if st.Referenced == 0 {
		t.Fatal("no list used a reference despite similarity")
	}
}

func TestExactRoundTrip(t *testing.T) {
	st := roundTrip(t, sampleLists, Options{Exact: true})
	if st.Referenced == 0 {
		t.Fatal("exact strategy used no references")
	}
}

func TestNoWindowEncodesDirectly(t *testing.T) {
	st := roundTrip(t, sampleLists, Options{Window: 0})
	if st.Referenced != 0 {
		t.Fatalf("window 0 used %d references", st.Referenced)
	}
}

func TestEmptyInput(t *testing.T) {
	roundTrip(t, nil, Options{Window: 4})
	roundTrip(t, nil, Options{Exact: true})
	roundTrip(t, [][]int32{{}}, Options{Window: 4})
	roundTrip(t, [][]int32{{}, {}}, Options{Exact: true})
}

func TestRejectsBadLists(t *testing.T) {
	w := bitio.NewWriter(0)
	if _, err := EncodeLists(w, [][]int32{{5, 5}}, Options{TargetBound: 8}); err == nil {
		t.Fatal("duplicate entries accepted")
	}
	if _, err := EncodeLists(w, [][]int32{{7, 3}}, Options{TargetBound: 8}); err == nil {
		t.Fatal("descending entries accepted")
	}
	if _, err := EncodeLists(w, [][]int32{{-1, 3}}, Options{TargetBound: 8}); err == nil {
		t.Fatal("negative entries accepted")
	}
	// A target the decoder would refuse is refused here: the bound is
	// part of the format, and without one only empty lists encode.
	if _, err := EncodeLists(w, [][]int32{{3, 8}}, Options{TargetBound: 8}); err == nil {
		t.Fatal("target at the bound accepted")
	}
	if _, err := EncodeLists(w, [][]int32{{0}}, Options{}); err == nil {
		t.Fatal("target accepted without a bound")
	}
	if _, err := EncodeLists(w, [][]int32{{}, {}}, Options{}); err != nil {
		t.Fatalf("empty lists need no bound: %v", err)
	}
}

// The figure-5 example from the paper: x = {5,7,12,18,20},
// y = {5,12,18,19,27}. Verify the shared/extra decomposition.
func TestPaperFigure5Decomposition(t *testing.T) {
	x := []int32{5, 7, 12, 18, 20}
	y := []int32{5, 12, 18, 19, 27}
	bits := make([]bool, len(x))
	extras := make([]int32, len(y))
	nShared, nExtra, _, _, _ := refParts(x, y, bits, extras, 32, GapGamma, math.MaxInt)
	if nShared != 3 || nExtra != 2 {
		t.Fatalf("shared=%d extras=%d, want 3 and 2", nShared, nExtra)
	}
	wantBits := []bool{true, false, true, true, false}
	for i := range wantBits {
		if bits[i] != wantBits[i] {
			t.Fatalf("bit %d = %v, want %v", i, bits[i], wantBits[i])
		}
	}
	if extras[0] != 19 || extras[1] != 27 {
		t.Fatalf("extras = %v, want [19 27]", extras[:nExtra])
	}
}

func TestSimilarListsCompressBetterThanDirect(t *testing.T) {
	// 50 near-identical lists: reference encoding must beat direct.
	rng := randutil.NewRNG(5)
	base := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	lists := make([][]int32, 50)
	for i := range lists {
		var l []int32
		for _, v := range base {
			if rng.Bool(0.9) {
				l = append(l, v)
			}
		}
		if rng.Bool(0.3) {
			l = append(l, 200+int32(i))
		}
		lists[i] = l
	}
	wRef := bitio.NewWriter(0)
	stRef, err := EncodeLists(wRef, lists, Options{Window: DefaultWindow, TargetBound: testBound})
	if err != nil {
		t.Fatal(err)
	}
	wDir := bitio.NewWriter(0)
	stDir, err := EncodeLists(wDir, lists, Options{Window: 0, TargetBound: testBound})
	if err != nil {
		t.Fatal(err)
	}
	if stRef.Bits >= stDir.Bits {
		t.Fatalf("reference encoding (%d bits) not smaller than direct (%d bits)",
			stRef.Bits, stDir.Bits)
	}
	// And the exact strategy must be at least as good as window in cost
	// terms, modulo its per-node index overhead; just require it works
	// and references heavily.
	wEx := bitio.NewWriter(0)
	stEx, err := EncodeLists(wEx, lists, Options{Exact: true, TargetBound: testBound})
	if err != nil {
		t.Fatal(err)
	}
	if stEx.Referenced < 40 {
		t.Fatalf("exact strategy referenced only %d/50", stEx.Referenced)
	}
	roundTrip(t, lists, Options{Window: DefaultWindow})
	roundTrip(t, lists, Options{Exact: true})
}

func TestWindowRespected(t *testing.T) {
	// Identical lists far apart: window 2 cannot reference across the
	// gap, so the distant copy is direct; a large window references it.
	lists := [][]int32{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{99}, {98}, {97}, {96},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	w2 := bitio.NewWriter(0)
	st2, err := EncodeLists(w2, lists, Options{Window: 2, TargetBound: testBound})
	if err != nil {
		t.Fatal(err)
	}
	w8 := bitio.NewWriter(0)
	st8, err := EncodeLists(w8, lists, Options{Window: 8, TargetBound: testBound})
	if err != nil {
		t.Fatal(err)
	}
	if st8.Bits >= st2.Bits {
		t.Fatalf("window 8 (%d bits) should beat window 2 (%d bits)", st8.Bits, st2.Bits)
	}
	roundTrip(t, lists, Options{Window: 2})
}

func randomLists(rng *randutil.RNG, m int) [][]int32 {
	lists := make([][]int32, m)
	for i := range lists {
		n := rng.Intn(12)
		var p []int32
		cur := int32(rng.Intn(5))
		for j := 0; j < n; j++ {
			p = append(p, cur)
			cur += int32(rng.Intn(30)) + 1
		}
		lists[i] = p
	}
	return lists
}

func TestQuickRoundTripBothStrategies(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randutil.NewRNG(seed)
		lists := randomLists(rng, rng.Intn(20)+1)
		for _, opt := range []Options{{Window: 0}, {Window: 4}, {Window: 16}, {Exact: true}} {
			opt.TargetBound = testBound
			w := bitio.NewWriter(0)
			if _, err := EncodeLists(w, lists, opt); err != nil {
				return false
			}
			r := bitio.NewReader(w.Bytes(), w.BitLen())
			got, err := DecodeListsBounded(r, len(lists), testBound)
			if err != nil || !sameLists(got, lists) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactNeverWorseThanDirectPayload(t *testing.T) {
	// The arborescence chooses direct encoding when referencing does not
	// pay, so exact total payload (minus its index overhead) is bounded
	// by the all-direct payload.
	rng := randutil.NewRNG(31)
	for trial := 0; trial < 20; trial++ {
		lists := randomLists(rng, 12)
		wEx := bitio.NewWriter(0)
		stEx, err := EncodeLists(wEx, lists, Options{Exact: true, TargetBound: testBound})
		if err != nil {
			t.Fatal(err)
		}
		wDir := bitio.NewWriter(0)
		stDir, err := EncodeLists(wDir, lists, Options{Window: 0, TargetBound: testBound})
		if err != nil {
			t.Fatal(err)
		}
		// Allow for the minimal-binary node indices (≤ 4 bits each here)
		// and the gamma-coded back-distance designators, which the
		// arborescence cost model does not include (up to ~7 bits for
		// m=12 versus the 1-bit direct designator).
		overhead := 11 * len(lists)
		if stEx.Bits > stDir.Bits+overhead {
			t.Fatalf("trial %d: exact %d bits exceeds direct %d + %d overhead",
				trial, stEx.Bits, stDir.Bits, overhead)
		}
	}
}

func BenchmarkEncodeWindow(b *testing.B) {
	rng := randutil.NewRNG(1)
	lists := randomLists(rng, 500)
	w := bitio.NewWriter(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if _, err := EncodeLists(w, lists, Options{Window: DefaultWindow, TargetBound: testBound}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeWindow(b *testing.B) {
	rng := randutil.NewRNG(1)
	lists := randomLists(rng, 500)
	w := bitio.NewWriter(1 << 16)
	if _, err := EncodeLists(w, lists, Options{Window: DefaultWindow, TargetBound: testBound}); err != nil {
		b.Fatal(err)
	}
	buf := w.Bytes()
	n := w.BitLen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(buf, n)
		if _, err := DecodeListsBounded(r, len(lists), testBound); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGapCodeRoundTrips(t *testing.T) {
	rng := randutil.NewRNG(23)
	lists := randomLists(rng, 24)
	for _, gc := range []GapCode{GapGamma, GapDelta, GapZeta2, GapZeta3} {
		for _, opt := range []Options{
			{Window: 8, GapCode: gc},
			{Exact: true, GapCode: gc},
			{Window: 8, GapCode: gc, TargetBound: 1 << 14},
		} {
			roundTrip(t, lists, opt)
		}
	}
}

func TestUnknownGapCodeRejected(t *testing.T) {
	w := bitio.NewWriter(0)
	if _, err := EncodeLists(w, nil, Options{GapCode: 99}); err == nil {
		t.Fatal("unknown gap code accepted")
	}
}

func TestZetaGapCodeCompetitive(t *testing.T) {
	// On wide power-law gaps, ζ_2/ζ_3 should not be dramatically worse
	// than gamma, and often better; just assert the encoder is wired in
	// and within 20% either way on this workload.
	rng := randutil.NewRNG(31)
	var lists [][]int32
	for i := 0; i < 200; i++ {
		var l []int32
		cur := int32(rng.Intn(64))
		n := 4 + rng.Intn(24)
		for j := 0; j < n; j++ {
			l = append(l, cur)
			// Power-law-ish gaps.
			g := 1 << uint(rng.Intn(12))
			cur += int32(rng.Intn(g) + 1)
		}
		lists = append(lists, l)
	}
	sizes := map[GapCode]int{}
	for _, gc := range []GapCode{GapGamma, GapZeta3} {
		w := bitio.NewWriter(0)
		st, err := EncodeLists(w, lists, Options{Window: 8, GapCode: gc, TargetBound: 1 << 17})
		if err != nil {
			t.Fatal(err)
		}
		sizes[gc] = st.Bits
	}
	ratio := float64(sizes[GapZeta3]) / float64(sizes[GapGamma])
	if ratio > 1.2 {
		t.Fatalf("ζ_3 is %.2fx gamma on power-law gaps", ratio)
	}
	t.Logf("gamma=%d bits, zeta3=%d bits (ratio %.3f)", sizes[GapGamma], sizes[GapZeta3], ratio)
}

// A coded gap of 2^63 or more makes int64(d) negative, so a naive
// nv >= bound check passes and int32 truncation emits an
// in-range-looking ID. readRun's fused bounds check must reject it, in
// the gamma loop and in the loop the other gap codes share.
func TestReadRunRejectsOverflowGap(t *testing.T) {
	for _, gap := range []uint64{1 << 63, 1<<63 + 5, 1<<64 - 1} {
		for _, gc := range []GapCode{GapGamma, GapDelta} {
			w := bitio.NewWriter(0)
			coding.WriteMinimalBinary(w, 0, 1)
			gc.write(w, gap)
			d := &listDecoder{bound: 1, gc: gc}
			if got, err := d.readRun(bitio.NewReader(w.Bytes(), w.BitLen()), nil, 2); !errors.Is(err, coding.ErrBadCode) {
				t.Fatalf("gap %d in code %d under bound 1: %v, %v; want ErrBadCode", gap, gc, got, err)
			}
		}
	}
}

// The same hole through the public decode path: a direct windowed list
// of two values under bound 1 whose gap is 2^63+5 must fail to decode,
// not come back as [0 5].
func TestDecodeListsBoundedRejectsOverflowGap(t *testing.T) {
	w := bitio.NewWriter(0)
	w.WriteBit(0)                         // window strategy
	w.WriteBits(uint64(GapGamma), 2)      // gap code
	coding.WriteGamma0(w, 0)              // no reference
	coding.WriteGamma0(w, 2)              // degree 2
	coding.WriteMinimalBinary(w, 0, 1)    // first value: zero bits under bound 1
	coding.WriteGamma(w, uint64(1)<<63+5) // corrupt gap
	r := bitio.NewReader(w.Bytes(), w.BitLen())
	if lists, err := DecodeListsBounded(r, 1, 1); err == nil {
		t.Fatalf("overflow gap accepted: %v", lists)
	}
}

// header writes the strategy bit and gap code every encoded graph
// starts with.
func header(w *bitio.Writer, exact bool) {
	w.WriteBool(exact)
	w.WriteBits(uint64(GapGamma), 2)
}

// A reference designator of 2^63 or more turns negative as an int, so
// i - int(off) lands above i and passed the old j < 0 check: list 0
// with off = 2^64-2 indexed lists[2] of a one-list graph and panicked.
// Both strategies must reject it as an error.
func TestDecodeRejectsHugeReferenceDesignator(t *testing.T) {
	for _, off := range []uint64{1 << 63, 1<<64 - 2} {
		w := bitio.NewWriter(0)
		header(w, false)
		coding.WriteGamma0(w, off) // list 0 references list 0-off
		coding.WriteGamma0(w, 0)
		if lists, err := DecodeListsBounded(bitio.NewReader(w.Bytes(), w.BitLen()), 1, 8); err == nil {
			t.Fatalf("window designator %d accepted: %v", off, lists)
		}

		w = bitio.NewWriter(0)
		header(w, true)
		coding.WriteMinimalBinary(w, 0, 1) // node index of position 0
		coding.WriteGamma0(w, off)         // position 0 references position 0-off
		coding.WriteGamma0(w, 0)
		if lists, err := DecodeListsBounded(bitio.NewReader(w.Bytes(), w.BitLen()), 1, 8); err == nil {
			t.Fatalf("exact designator %d accepted: %v", off, lists)
		}
	}
}

// A degree or extra count of 2^63 or more turned negative as an int,
// the run loop never ran, and a one-value list came back as success.
// The count is now checked against the bits left to read, which also
// stops any count the stream cannot hold before memory is allocated
// for it.
func TestDecodeRejectsCountBeyondStream(t *testing.T) {
	for _, count := range []uint64{1 << 63, 1<<64 - 2, 1 << 40, 200} {
		// A direct list claiming count values, with bits for only a few.
		const bound = 1 << 30 // wide enough that only the count is wrong
		w := bitio.NewWriter(0)
		header(w, false)
		coding.WriteGamma0(w, 0)
		coding.WriteGamma0(w, count)
		coding.WriteMinimalBinary(w, 2, bound)
		coding.WriteGamma(w, 1)
		if lists, err := DecodeListsBounded(bitio.NewReader(w.Bytes(), w.BitLen()), 1, bound); err == nil {
			t.Fatalf("degree %d accepted: %v", count, lists)
		}

		// A referenced list claiming count extras.
		w = bitio.NewWriter(0)
		header(w, false)
		coding.WriteGamma0(w, 0) // list 0: direct, [2]
		coding.WriteGamma0(w, 1)
		coding.WriteMinimalBinary(w, 2, bound)
		coding.WriteGamma0(w, 1) // list 1: references list 0
		coding.WriteRLEBits(w, []bool{true})
		coding.WriteGamma0(w, count)
		coding.WriteMinimalBinary(w, 0, bound)
		if lists, err := DecodeListsBounded(bitio.NewReader(w.Bytes(), w.BitLen()), 2, bound); err == nil {
			t.Fatalf("extra count %d accepted: %v", count, lists)
		}
	}
}

// The count check allows one value more than there are bits left: under
// bound 1 the only possible value is coded in zero bits, so a list [0]
// that ends the stream has a count of 1 and nothing after it.
func TestDecodeAcceptsZeroBitFinalValue(t *testing.T) {
	lists := [][]int32{{0}, {}, {0}}
	w := bitio.NewWriter(0)
	if _, err := EncodeLists(w, lists, Options{TargetBound: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeListsBounded(bitio.NewReader(w.Bytes(), w.BitLen()), len(lists), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLists(got, lists) {
		t.Fatalf("got %v, want %v", got, lists)
	}
}

// A decoded set is two arrays whatever the number of lists: the offsets
// and the IDs, each exactly as long as what it holds — MemSize, which
// counts capacity, reports no more than the lists need, so nothing the
// cache holds is slack it does not account for — and a decode allocates
// those two and (the pooled scratch being warm) nothing per list. Each
// list is cut to its size, so appending to one cannot write into the
// next.
func TestDecodeListsAreExactSizedFlatArrays(t *testing.T) {
	rng := randutil.NewRNG(31)
	lists := randomLists(rng, 200)
	var ids int
	for _, l := range lists {
		ids += len(l)
	}
	for _, opt := range []Options{{Window: 8, TargetBound: testBound}, {Window: 8, TargetBound: 1 << 20}, {Exact: true, TargetBound: testBound}, {Window: 8, GapCode: GapZeta3, TargetBound: testBound}} {
		w := bitio.NewWriter(0)
		if _, err := EncodeLists(w, lists, opt); err != nil {
			t.Fatal(err)
		}
		buf, nBits := w.Bytes(), w.BitLen()
		got, err := DecodeListsBounded(bitio.NewReader(buf, nBits), len(lists), opt.TargetBound)
		if err != nil {
			t.Fatal(err)
		}
		if !sameLists(got, lists) {
			t.Fatalf("%+v: decoded wrong", opt)
		}
		if want := int64(4 * (len(lists) + 1 + ids)); got.MemSize() != want {
			t.Fatalf("%+v: MemSize %d for %d lists of %d IDs, want %d: the arrays carry slack", opt, got.MemSize(), len(lists), ids, want)
		}
		for i := range lists {
			if l := got.At(i); cap(l) != len(l) {
				t.Fatalf("%+v: list %d has len %d but cap %d", opt, i, len(l), cap(l))
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeListsBounded(bitio.NewReader(buf, nBits), len(lists), opt.TargetBound); err != nil {
				t.Fatal(err)
			}
		})
		// The two arrays, plus, for the exact strategy, the node order,
		// the seen set and the two arrays of the reordered copy. Under
		// the race detector the scratch pool forgets, and a decode that
		// finds it empty grows new scratch: still nothing per list.
		budget := 2.0
		if opt.Exact {
			budget = 6
		}
		if raceflag.Enabled {
			budget += 24
		}
		if allocs > budget {
			t.Errorf("%+v: %.0f allocations to decode %d lists, want at most %.0f", opt, allocs, len(lists), budget)
		}
	}
}

// TestCostsMatchWrittenBits: the reference search picks each list's
// encoding by the cost model — directCost on its own, Gamma0Len(off) +
// refCost against the list off back — so the model must count exactly
// the bits the designator and writeOneList then emit. A miscount moves
// the choice, and every byte after it. Every gap code, on pairs of
// lists that share some targets and not others, under bounds from 1 up
// (bound 1 makes a run's first value zero bits), with one scratch
// reused throughout as the encoders reuse theirs.
func TestCostsMatchWrittenBits(t *testing.T) {
	rng := randutil.NewRNG(38)
	var lw listWriter
	w := bitio.NewWriter(0)
	for _, gc := range []GapCode{GapGamma, GapDelta, GapZeta2, GapZeta3} {
		for trial := 0; trial < 500; trial++ {
			bound := uint64(1 + rng.Intn(3000))
			var ref, list []int32
			for v := int32(0); uint64(v) < bound && len(ref)+len(list) < 400; v++ {
				switch rng.Intn(8) {
				case 0:
					ref = append(ref, v)
				case 1:
					list = append(list, v)
				case 2:
					ref, list = append(ref, v), append(list, v)
				}
			}
			w.Reset()
			coding.WriteGamma0(w, 0)
			lw.writeOneList(w, nil, list, bound, gc)
			if got, want := w.BitLen(), directCost(list, bound, gc); got != want {
				t.Fatalf("gap code %d, bound %d, list %v: directCost %d bits, written %d", gc, bound, list, want, got)
			}
			off := uint64(1 + rng.Intn(DefaultWindow))
			w.Reset()
			coding.WriteGamma0(w, off)
			lw.writeOneList(w, ref, list, bound, gc)
			c, _ := refCost(ref, list, bound, gc, math.MaxInt)
			if got, want := w.BitLen(), coding.Gamma0Len(off)+c; got != want {
				t.Fatalf("gap code %d, bound %d, list %v against %v: Gamma0Len+refCost %d bits, written %d", gc, bound, list, ref, want, got)
			}
		}
	}
}

// TestBestRefMatchesExhaustiveSearch: the pruned reference search picks
// the offset the exhaustive one does — every candidate in the window,
// empty ones included, priced in full, the first of equal costs kept —
// for every list of random list sets under every gap code and several
// windows. The sets hold empty lists, lists in ranges far apart, lists
// whose targets differ in their residues modulo 64 inside one range,
// and exact and near copies of earlier lists, which tie at offsets of
// one designator length.
func TestBestRefMatchesExhaustiveSearch(t *testing.T) {
	const bound = 1 << 20
	rng := randutil.NewRNG(53)
	exhaustive := func(lists [][]int32, i, window int, gc GapCode) int {
		bestOff, bestCost := 0, directCost(lists[i], bound, gc)
		for j := max(i-window, 0); j < i; j++ {
			c, _ := refCost(lists[j], lists[i], bound, gc, math.MaxInt)
			if c += coding.Gamma0Len(uint64(i - j)); c < bestCost {
				bestOff, bestCost = i-j, c
			}
		}
		return bestOff
	}
	list := func() []int32 {
		var l []int32
		switch rng.Intn(4) {
		case 0: // in one of three ranges far apart
			base := int32(rng.Intn(3)) * (bound / 3)
			for v := base + int32(rng.Intn(50)); len(l) < rng.Intn(40); v += int32(1 + rng.Intn(20)) {
				l = append(l, v)
			}
		case 1: // one residue modulo 64 inside [0, 4096)
			r := int32(rng.Intn(4))
			for v := r; v < 4096; v += 64 {
				if rng.Bool(0.5) {
					l = append(l, v)
				}
			}
		default: // dense inside [0, 200)
			for v := int32(0); v < 200; v++ {
				if rng.Bool(0.1) {
					l = append(l, v)
				}
			}
		}
		return l
	}
	var picked, referenced int
	for trial := 0; trial < 300; trial++ {
		lists := make([][]int32, 1+rng.Intn(40))
		for i := range lists {
			switch k := rng.Intn(10); {
			case k == 0 || i == 0 && k < 4:
				// empty
			case k < 3 && i > 0: // an exact copy of an earlier list
				lists[i] = lists[rng.Intn(i)]
			case k < 5 && i > 0: // an earlier list with one target dropped
				l := slices.Clone(lists[rng.Intn(i)])
				if len(l) > 0 {
					k := rng.Intn(len(l))
					l = slices.Delete(l, k, k+1)
				}
				lists[i] = l
			default:
				lists[i] = list()
			}
		}
		spans := make([]span, len(lists)) // one a list: j modulo its length is j
		for i, l := range lists {
			if len(l) > 0 {
				spans[i] = spanOf(l)
			}
		}
		for _, gc := range []GapCode{GapGamma, GapDelta, GapZeta2, GapZeta3} {
			for _, window := range []int{1, 3, DefaultWindow, 16} {
				for i := range lists {
					got, want := bestRef(lists, spans, i, window, bound, gc), exhaustive(lists, i, window, gc)
					if got != want {
						t.Fatalf("trial %d, gap code %d, window %d, list %d: offset %d, the exhaustive search %d", trial, gc, window, i, got, want)
					}
					picked++
					if want > 0 {
						referenced++
					}
				}
			}
		}
	}
	t.Logf("%d choices, %d of them a reference", picked, referenced)
}

// TestDecodeListMatchesDecodeLists holds the one-list decode to the
// whole decode: on window and exact streams under every gap code, list k
// alone is list k of the whole set, appended after what dst held, with a
// count of the entries of lists 0..k (window) or of all of them (exact).
// A window-strategy call allocates nothing once dst has room, and a k
// outside the set is an error.
func TestDecodeListMatchesDecodeLists(t *testing.T) {
	rng := randutil.NewRNG(39)
	lists := randomLists(rng, 60)
	prefix := []int32{-7, -8}
	for _, gc := range []GapCode{GapGamma, GapDelta, GapZeta2, GapZeta3} {
		for _, opt := range []Options{
			{Window: DefaultWindow, GapCode: gc, TargetBound: testBound},
			{Window: 0, GapCode: gc, TargetBound: testBound},
			{Exact: true, GapCode: gc, TargetBound: testBound},
		} {
			w := bitio.NewWriter(0)
			if _, err := EncodeLists(w, lists, opt); err != nil {
				t.Fatal(err)
			}
			buf, nBits := w.Bytes(), w.BitLen()
			whole, err := DecodeListsBounded(bitio.NewReader(buf, nBits), len(lists), testBound)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int32, 0, 4096)
			for k := range lists {
				got, n, err := DecodeList(bitio.NewReader(buf, nBits), len(lists), k, testBound, append(dst[:0], prefix...))
				if err != nil {
					t.Fatalf("%+v: list %d: %v", opt, k, err)
				}
				if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], whole.At(k)) {
					t.Fatalf("%+v: list %d decoded alone to %v, want %v after %v", opt, k, got, whole.At(k), prefix)
				}
				want := int(whole.Off[k+1])
				if opt.Exact {
					want = len(whole.IDs)
				}
				if n != want {
					t.Fatalf("%+v: list %d: %d entries decoded, want %d", opt, k, n, want)
				}
			}
			for _, k := range []int{-1, len(lists)} {
				if _, _, err := DecodeList(bitio.NewReader(buf, nBits), len(lists), k, testBound, nil); err == nil {
					t.Fatalf("%+v: list %d of %d decoded", opt, k, len(lists))
				}
			}
			if opt.Exact || raceflag.Enabled {
				continue
			}
			allocs := testing.AllocsPerRun(20, func() {
				r := bitio.NewReader(buf, nBits)
				if _, _, err := DecodeList(r, len(lists), len(lists)-1, testBound, dst[:0]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%+v: %.0f allocations to decode one list", opt, allocs)
			}
		}
	}
}
