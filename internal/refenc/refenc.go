// Package refenc implements the reference-encoding graph compression of
// paper §3.1 (after Adler & Mitzenmacher): the adjacency list of a page
// y may be encoded relative to a reference page x as a copy bit-vector
// over x's list plus a list of extra targets. The S-Node scheme applies
// it to intranode and superedge graphs.
//
// Two reference-selection strategies are provided:
//
//   - Window: each list may reference one of the previous W lists. The
//     choice is individually optimal and the result is cycle-free by
//     construction, so lists decode in storage order. This is the
//     production strategy (the Link Database uses the same idea).
//   - Exact: the full affinity graph of Adler & Mitzenmacher — an edge
//     x→y weighted by the cost of encoding y given x, plus root edges
//     weighted by direct-encoding cost — solved with the Chu-Liu/Edmonds
//     minimum-arborescence algorithm (edmonds.go). Lists are stored in
//     BFS order of the arborescence with explicit node indices.
//
// Both strategies share one wire format per list: a gamma-coded
// reference designator, then either {degree, gap-coded targets} or
// {RLE copy bit-vector, extra count, gap-coded extras}. Targets lie in
// [0, TargetBound), which encoder and decoder must agree on: a run's
// first value is minimal binary under it, and the decoder checks every
// ID it produces against it, in the loop that produces it.
//
// The encoder takes [][]int32, which is what a builder has. The decoder
// returns a Lists (lists.go): one offsets array and one ID array per
// graph, a referenced list copied run by run from an earlier range of
// the same array. That is the decoded form of the whole repository —
// the other S-Node codecs build it too, and the graph cache and Link3's
// block cache hold it — because a cold lookup decodes a hundred small
// graphs and pays for whatever is allocated around each list. A lookup
// that wants one list of a stream decodes it with DecodeList, which
// stops after it and keeps nothing else.
package refenc

import (
	"fmt"
	"slices"

	"snode/internal/bitio"
	"snode/internal/coding"
)

// Options configures encoding.
type Options struct {
	// Window is the number of preceding lists considered as references
	// (ignored when Exact). Zero disables referencing: all lists are
	// encoded directly.
	Window int
	// Exact selects the affinity-graph/minimum-arborescence strategy.
	// It is O(m²) space and O(m³) time in the number of lists; callers
	// cap m (the builder only uses it for small graphs or ablations).
	Exact bool
	// TargetBound declares that all targets lie in [0, TargetBound): the
	// first value of each gap-coded run is written in minimal binary
	// under it — a significant saving for the small local ID spaces of
	// intranode and superedge graphs — and the decoder, which must be
	// given the same bound, holds every ID it produces to it. EncodeLists
	// refuses a target outside the bound, so the zero value only encodes
	// empty lists.
	TargetBound uint64
	// GapCode selects the integer code for successive gaps (the paper
	// uses gamma; ζ codes are the post-paper refinement WebGraph
	// standardized on). Recorded in the stream header, so decoders need
	// no out-of-band knowledge.
	GapCode GapCode
}

// GapCode enumerates gap coders.
type GapCode uint8

// Gap coders selectable in Options.
const (
	GapGamma GapCode = iota // Elias gamma (the paper's choice)
	GapDelta                // Elias delta
	GapZeta2                // ζ_2 (Boldi & Vigna)
	GapZeta3                // ζ_3
)

func (g GapCode) write(w *bitio.Writer, v uint64) {
	switch g {
	case GapDelta:
		coding.WriteDelta(w, v)
	case GapZeta2:
		coding.WriteZeta(w, v, 2)
	case GapZeta3:
		coding.WriteZeta(w, v, 3)
	default:
		coding.WriteGamma(w, v)
	}
}

func (g GapCode) read(r *bitio.Reader) (uint64, error) {
	switch g {
	case GapDelta:
		return coding.ReadDelta(r)
	case GapZeta2:
		return coding.ReadZeta(r, 2)
	case GapZeta3:
		return coding.ReadZeta(r, 3)
	default:
		return coding.ReadGamma(r)
	}
}

func (g GapCode) bits(v uint64) int {
	switch g {
	case GapDelta:
		return coding.DeltaLen(v)
	case GapZeta2:
		return coding.ZetaLen(v, 2)
	case GapZeta3:
		return coding.ZetaLen(v, 3)
	default:
		return coding.GammaLen(v)
	}
}

// DefaultWindow matches the Link Database's window of 8.
const DefaultWindow = 8

// directCost is the encoded size of a list with no reference, including
// the reference designator.
func directCost(list []int32, bound uint64, gc GapCode) int {
	n := coding.Gamma0Len(0) + coding.Gamma0Len(uint64(len(list)))
	if len(list) == 0 {
		return n
	}
	n += coding.MinimalBinaryLen(uint64(list[0]), bound)
	for i := 1; i < len(list); i++ {
		n += gc.bits(uint64(list[i] - list[i-1]))
	}
	return n
}

// refCost is the encoded size of list encoded against ref, excluding
// the reference designator (which differs per strategy).
func refCost(ref, list []int32, bound uint64, gc GapCode) int {
	nShared, nExtra, rleLen, gapLen := refParts(ref, list, nil, nil, bound, gc)
	_ = nShared
	return rleLen + coding.Gamma0Len(uint64(nExtra)) + gapLen
}

// refParts walks ref and list once, computing the shared/extra split.
// When bits/extras are non-nil they are filled for encoding.
func refParts(ref, list []int32, bits []bool, extras []int32, bound uint64, gc GapCode) (nShared, nExtra, rleLen, gapLen int) {
	i, j := 0, 0
	var lastRun bool
	var runLen uint64
	rleLen = 0
	flush := func() {
		if runLen > 0 {
			rleLen += coding.GammaLen(runLen)
		}
	}
	pushBit := func(b bool) {
		if bits != nil {
			bits[i] = b
		}
		if rleLen == 0 && runLen == 0 {
			rleLen = 1 // first-bit marker
			lastRun = b
			runLen = 1
			return
		}
		if b == lastRun {
			runLen++
			return
		}
		flush()
		lastRun = b
		runLen = 1
	}
	var prevExtra int32 = -1
	pushExtra := func(v int32) {
		if extras != nil {
			extras[nExtra] = v
		}
		if prevExtra < 0 {
			gapLen += coding.MinimalBinaryLen(uint64(v), bound)
		} else {
			gapLen += gc.bits(uint64(v - prevExtra))
		}
		prevExtra = v
		nExtra++
	}
	for i < len(ref) {
		switch {
		case j >= len(list) || ref[i] < list[j]:
			pushBit(false)
			i++
		case ref[i] == list[j]:
			pushBit(true)
			nShared++
			i++
			j++
		default: // list[j] < ref[i]
			pushExtra(list[j])
			j++
		}
	}
	for ; j < len(list); j++ {
		pushExtra(list[j])
	}
	flush()
	return nShared, nExtra, rleLen, gapLen
}

// Stats reports how an encoding went.
type Stats struct {
	Lists      int
	Referenced int // lists that used a reference
	Bits       int
}

// EncodeLists appends the encoded form of lists to w. Lists must be
// strictly increasing sequences of target IDs in [0, opt.TargetBound).
// The format begins with one bit selecting the strategy and two naming
// the gap code, so DecodeListsBounded needs only the bound.
func EncodeLists(w *bitio.Writer, lists [][]int32, opt Options) (Stats, error) {
	for li, l := range lists {
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				return Stats{}, fmt.Errorf("refenc: list %d not strictly increasing", li)
			}
		}
		if len(l) > 0 && l[0] < 0 {
			return Stats{}, fmt.Errorf("refenc: list %d has negative target", li)
		}
		if len(l) > 0 && uint64(l[len(l)-1]) >= opt.TargetBound {
			return Stats{}, fmt.Errorf("refenc: list %d has target %d outside [0,%d)", li, l[len(l)-1], opt.TargetBound)
		}
	}
	if opt.GapCode > GapZeta3 {
		return Stats{}, fmt.Errorf("refenc: unknown gap code %d", opt.GapCode)
	}
	if opt.Exact {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
	w.WriteBits(uint64(opt.GapCode), 2)
	if opt.Exact {
		return encodeExact(w, lists, opt.TargetBound, opt.GapCode)
	}
	return encodeWindow(w, lists, opt.Window, opt.TargetBound, opt.GapCode)
}

// writeRun writes a sorted list as first value (minimal binary under
// bound) followed by coded gaps.
func writeRun(w *bitio.Writer, list []int32, bound uint64, gc GapCode) {
	if len(list) == 0 {
		return
	}
	coding.WriteMinimalBinary(w, uint64(list[0]), bound)
	for i := 1; i < len(list); i++ {
		gc.write(w, uint64(list[i]-list[i-1]))
	}
}

// listWriter is one encoding's scratch for the lists it writes against
// a reference: the copy bit-vector and the extras, reused from one list
// to the next.
type listWriter struct {
	bits   []bool
	extras []int32
}

// writeOneList writes list after its reference designator: directly
// when ref is nil, otherwise against ref.
func (lw *listWriter) writeOneList(w *bitio.Writer, ref, list []int32, bound uint64, gc GapCode) {
	if ref == nil {
		coding.WriteGamma0(w, uint64(len(list)))
		writeRun(w, list, bound, gc)
		return
	}
	// refParts sets every bit and the first nExtra extras.
	lw.bits = slices.Grow(lw.bits[:0], len(ref))[:len(ref)]
	lw.extras = slices.Grow(lw.extras[:0], len(list))[:len(list)]
	_, nExtra, _, _ := refParts(ref, list, lw.bits, lw.extras, bound, gc)
	coding.WriteRLEBits(w, lw.bits)
	coding.WriteGamma0(w, uint64(nExtra))
	writeRun(w, lw.extras[:nExtra], bound, gc)
}

// listDecoder is the state one DecodeListsBounded call shares between
// its lists: the stream's parameters, and the builder the decoded lists
// go to — whose pooled scratch also holds what a referenced list needs
// while it is merged. Decoding a graph therefore allocates the two
// arrays of its Lists and nothing per list. The stream itself is handed
// to each method rather than held: the scratch goes back to a pool,
// which escape analysis reads as everything the decoder holds escaping,
// and a Reader held here would be heap-allocated by every caller.
type listDecoder struct {
	bound uint64
	gc    GapCode
	b     Builder
}

// readRun appends to dst the n values of a run written by writeRun.
// Every decoded value is validated against [0, bound) as it is produced
// — a minimal binary first value cannot escape, but a corrupt gap can
// push the running sum past the bound (or wrap it), and fusing the
// check into the decode loop spares callers a second O(E) validation
// pass over every decoded graph. The gap code is chosen once a run, not
// once a gap: gamma, which every artifact uses, has its own loop in
// coding; delta and ζ, which the ablations use, share the one below.
func (d *listDecoder) readRun(r *bitio.Reader, dst []int32, n int) ([]int32, error) {
	if d.gc == GapGamma {
		return coding.ReadBoundedGapList(r, n, d.bound, dst)
	}
	if n == 0 {
		return dst, nil
	}
	v, err := coding.ReadMinimalBinary(r, d.bound)
	if err != nil {
		return dst, err
	}
	cur := int64(int32(v))
	dst = append(dst, int32(cur))
	for i := 1; i < n; i++ {
		gap, err := d.gc.read(r)
		if err != nil {
			return dst, err
		}
		// gap spans the full uint64 range, so int64(gap) can be negative
		// or wrap the sum past MaxInt64 (which lands negative, since cur
		// is non-negative); cur < 0 || cur >= bound rejects every corrupt
		// gap.
		cur += int64(gap)
		if cur < 0 || cur >= int64(d.bound) {
			return dst, fmt.Errorf("refenc: gap %d escapes run bound [0,%d): %w", gap, d.bound, coding.ErrBadCode)
		}
		dst = append(dst, int32(cur))
	}
	return dst, nil
}

// readCount reads a gamma0-coded degree or extra count and rejects one
// the rest of the stream cannot hold, before anything is allocated for
// it: every value of a run but the first costs at least one bit, and
// the first costs none under bound 1. The check also keeps the
// conversion to int safe — a count of 2^63 or more would turn negative
// and decode as an empty run.
func readCount(r *bitio.Reader) (int, error) {
	n, err := coding.ReadGamma0(r)
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining())+1 {
		return 0, fmt.Errorf("refenc: %d values claimed with %d bits left", n, r.Remaining())
	}
	return int(n), nil
}

// readDirect decodes a list stored without a reference: {degree,
// gap-coded targets}.
func (d *listDecoder) readDirect(r *bitio.Reader) error {
	deg, err := readCount(r)
	if err != nil {
		return err
	}
	if d.b.IDs, err = d.readRun(r, d.b.IDs, deg); err != nil {
		return err
	}
	return d.b.End()
}

// readReferenced decodes a list stored against the earlier list ref:
// {RLE copy bit-vector over ref, extra count, gap-coded extras}.
func (d *listDecoder) readReferenced(r *bitio.Reader, ref int) error {
	from := d.b.List(ref)
	sc := d.b.sc
	var err error
	if sc.runs, err = coding.ReadRLERuns(r, len(from), sc.runs); err != nil {
		return err
	}
	nExtra, err := readCount(r)
	if err != nil {
		return err
	}
	if sc.extras, err = d.readRun(r, sc.extras[:0], nExtra); err != nil {
		return err
	}
	// Merge the selected runs of the reference with the extras (both
	// sorted, and disjoint by construction): a run no extra falls inside
	// is one copy. from may be a range of an array the appends below have
	// outgrown; what it holds does not change.
	extras, ids := sc.extras, d.b.IDs
	for k := 0; k < len(sc.runs); k += 2 {
		sel := from[sc.runs[k]:sc.runs[k+1]]
		for len(extras) > 0 && extras[0] < sel[len(sel)-1] {
			i := 0
			for sel[i] < extras[0] {
				i++
			}
			ids = append(append(ids, sel[:i]...), extras[0])
			sel, extras = sel[i:], extras[1:]
		}
		ids = append(ids, sel...)
	}
	d.b.IDs = append(ids, extras...)
	return d.b.End()
}

func encodeWindow(w *bitio.Writer, lists [][]int32, window int, bound uint64, gc GapCode) (Stats, error) {
	if window < 0 {
		window = 0
	}
	startBits := w.BitLen()
	var st Stats
	st.Lists = len(lists)
	var lw listWriter
	for i, list := range lists {
		bestOff := 0
		bestCost := directCost(list, bound, gc)
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			// Referencing an empty list is never useful.
			if len(lists[j]) == 0 {
				continue
			}
			off := i - j
			c := coding.Gamma0Len(uint64(off)) + refCost(lists[j], list, bound, gc)
			if c < bestCost {
				bestCost = c
				bestOff = off
			}
		}
		coding.WriteGamma0(w, uint64(bestOff))
		if bestOff == 0 {
			lw.writeOneList(w, nil, list, bound, gc)
		} else {
			lw.writeOneList(w, lists[i-bestOff], list, bound, gc)
			st.Referenced++
		}
	}
	st.Bits = w.BitLen() - startBits + 3 // +3 header bits
	return st, nil
}

// readHeader reads the three bits EncodeLists opens a stream with: the
// strategy, and the gap code.
func readHeader(r *bitio.Reader) (exact bool, gc GapCode, err error) {
	if exact, err = r.ReadBool(); err != nil {
		return false, 0, err
	}
	gcBits, err := r.ReadBits(2)
	return exact, GapCode(gcBits), err
}

// step decodes list i, whose reference designator is next in r and
// whose predecessors are decoded already: the one per-list step of every
// decode, whole or of one list, window or exact strategy (where i counts
// positions in storage order).
func (d *listDecoder) step(r *bitio.Reader, i int) error {
	off, err := coding.ReadGamma0(r)
	switch {
	case err != nil:
		return err
	case off == 0:
		return d.readDirect(r)
	case off > uint64(i):
		// Compared unsigned: a designator of 2^63 or more would turn
		// negative as an int and index past the lists decoded so far.
		return fmt.Errorf("refenc: list %d references out of range", i)
	default:
		return d.readReferenced(r, i-int(off))
	}
}

// DecodeListsBounded reads m lists previously written by EncodeLists
// with the given TargetBound.
func DecodeListsBounded(r *bitio.Reader, m int, bound uint64) (Lists, error) {
	exact, gc, err := readHeader(r)
	if err != nil {
		return Lists{}, err
	}
	d := listDecoder{bound: bound, gc: gc, b: NewBuilder(m)}
	if exact {
		return d.decodeExact(r, m)
	}
	for i := 0; i < m; i++ {
		if err := d.step(r, i); err != nil {
			return Lists{}, err
		}
	}
	return d.b.Lists(), nil
}

// DecodeList appends list k of the m lists in r — a stream written by
// EncodeLists with the given TargetBound — to dst, and reports how many
// list entries it decoded to get there. A window-strategy stream decodes
// lists 0..k, the ones k can reference, in pooled scratch and stops:
// the call allocates nothing, and a list costs what precedes it rather
// than what the whole stream holds. An exact-strategy stream stores
// lists out of order, so it is decoded whole.
func DecodeList(r *bitio.Reader, m, k int, bound uint64, dst []int32) ([]int32, int, error) {
	if k < 0 || k >= m {
		return dst, 0, fmt.Errorf("refenc: list %d of %d", k, m)
	}
	exact, gc, err := readHeader(r)
	if err != nil {
		return dst, 0, err
	}
	if exact {
		d := listDecoder{bound: bound, gc: gc, b: NewBuilder(m)}
		l, err := d.decodeExact(r, m)
		if err != nil {
			return dst, 0, err
		}
		return append(dst, l.At(k)...), len(l.IDs), nil
	}
	d := listDecoder{bound: bound, gc: gc, b: newScratchBuilder()}
	defer d.b.release()
	for i := 0; i <= k; i++ {
		if err := d.step(r, i); err != nil {
			return dst, 0, err
		}
	}
	return append(dst, d.b.List(k)...), len(d.b.IDs), nil
}

// encodeExact builds the full affinity graph, solves the minimum
// arborescence, and writes lists in BFS order from the root with
// explicit node indices.
func encodeExact(w *bitio.Writer, lists [][]int32, bound uint64, gc GapCode) (Stats, error) {
	m := len(lists)
	var st Stats
	st.Lists = m
	startBits := w.BitLen()
	if m == 0 {
		st.Bits = w.BitLen() - startBits + 3
		return st, nil
	}
	// Affinity graph: vertex m is the root.
	root := m
	var edges []WEdge
	for y := 0; y < m; y++ {
		edges = append(edges, WEdge{From: root, To: y, W: float64(directCost(lists[y], bound, gc))})
		for x := 0; x < m; x++ {
			if x == y || len(lists[x]) == 0 {
				continue
			}
			edges = append(edges, WEdge{From: x, To: y, W: float64(refCost(lists[x], lists[y], bound, gc))})
		}
	}
	parentEdge, _, err := MinArborescence(m+1, root, edges)
	if err != nil {
		return st, err
	}
	parent := make([]int, m)
	children := make([][]int, m+1)
	for v := 0; v < m; v++ {
		p := edges[parentEdge[v]].From
		parent[v] = p
		children[p] = append(children[p], v)
	}
	// BFS from the root defines the storage order.
	order := make([]int, 0, m)
	posOf := make([]int, m)
	queue := append([]int(nil), children[root]...)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		posOf[v] = len(order)
		order = append(order, v)
		queue = append(queue, children[v]...)
	}
	if len(order) != m {
		return st, fmt.Errorf("refenc: arborescence does not span (%d of %d)", len(order), m)
	}
	var lw listWriter
	for pos, v := range order {
		coding.WriteMinimalBinary(w, uint64(v), uint64(m))
		if parent[v] == root {
			coding.WriteGamma0(w, 0)
			lw.writeOneList(w, nil, lists[v], bound, gc)
		} else {
			back := pos - posOf[parent[v]]
			coding.WriteGamma0(w, uint64(back))
			lw.writeOneList(w, lists[parent[v]], lists[v], bound, gc)
			st.Referenced++
		}
	}
	st.Bits = w.BitLen() - startBits + 3
	return st, nil
}

// decodeExact decodes the arborescence order — position pos holds the
// list of node at[pos], and its reference designator counts positions
// back — and then lays the lists out by node.
func (d *listDecoder) decodeExact(r *bitio.Reader, m int) (Lists, error) {
	at := make([]int32, m)
	seen := make([]bool, m)
	for pos := 0; pos < m; pos++ {
		vi, err := coding.ReadMinimalBinary(r, uint64(m))
		if err != nil {
			return Lists{}, err
		}
		if seen[vi] {
			return Lists{}, fmt.Errorf("refenc: node %d decoded twice", vi)
		}
		seen[vi] = true
		at[pos] = int32(vi)
		if err := d.step(r, pos); err != nil {
			return Lists{}, err
		}
	}
	return d.b.Lists().placedAt(at), nil
}
