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
// {RLE copy bit-vector, extra count, gap-coded extras}.
package refenc

import (
	"fmt"

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
	// TargetBound, when positive, declares that all targets lie in
	// [0, TargetBound); the first value of each gap-coded run is then
	// written in minimal binary instead of gamma — a significant saving
	// for the small local ID spaces of intranode and superedge graphs.
	// Decoders must pass the same bound to DecodeListsBounded.
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

// firstValLen is the cost of the first value of a gap run: minimal
// binary under a bound, gamma otherwise.
func firstValLen(v int32, bound uint64) int {
	if bound > 0 {
		return coding.MinimalBinaryLen(uint64(v), bound)
	}
	return coding.GammaLen(uint64(v) + 1)
}

// directCost is the encoded size of a list with no reference, including
// the reference designator.
func directCost(list []int32, bound uint64, gc GapCode) int {
	n := coding.Gamma0Len(0) + coding.Gamma0Len(uint64(len(list)))
	if len(list) == 0 {
		return n
	}
	n += firstValLen(list[0], bound)
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
			gapLen += firstValLen(v, bound)
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
// strictly increasing sequences of non-negative target IDs. The format
// begins with one bit selecting the strategy so DecodeLists needs no
// out-of-band options.
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
// bound when positive, else gamma) followed by coded gaps.
func writeRun(w *bitio.Writer, list []int32, bound uint64, gc GapCode) {
	if len(list) == 0 {
		return
	}
	if bound > 0 {
		coding.WriteMinimalBinary(w, uint64(list[0]), bound)
	} else {
		coding.WriteGamma(w, uint64(list[0])+1)
	}
	for i := 1; i < len(list); i++ {
		gc.write(w, uint64(list[i]-list[i-1]))
	}
}

func writeOneList(w *bitio.Writer, ref, list []int32, bound uint64, gc GapCode) {
	if ref == nil {
		coding.WriteGamma0(w, uint64(len(list)))
		writeRun(w, list, bound, gc)
		return
	}
	bits := make([]bool, len(ref))
	extras := make([]int32, len(list))
	_, nExtra, _, _ := refParts(ref, list, bits, extras, bound, gc)
	coding.WriteRLEBits(w, bits)
	coding.WriteGamma0(w, uint64(nExtra))
	writeRun(w, extras[:nExtra], bound, gc)
}

// listDecoder is the state one DecodeListsBounded call shares between
// its lists: the stream and its parameters, the arena the decoded lists
// are cut from, and the scratch a referenced list needs while it is
// merged. Decoding a graph therefore allocates per arena chunk, not per
// list.
type listDecoder struct {
	r     *bitio.Reader
	bound uint64
	gc    GapCode

	chunk  []int32 // unused tail of the current arena chunk
	start  int     // bit position of the first list
	ids    int     // IDs of the lists decoded so far
	bits   []bool  // copy bit-vector of the list being decoded
	extras []int32 // its extra targets, before the merge
}

// An arena chunk is sized to hold the rest of the graph: the bits still
// unread at the bits-per-ID the lists decoded so far have cost (plus an
// eighth), or at arenaBitsPerID before any has been decoded — about
// what gap-coded lists cost. A typical graph takes one or two chunks.
// The clamp bounds a chunk's unused tail, which the cache's size
// accounting does not see.
const (
	arenaBitsPerID = 8
	arenaMinChunk  = 16
	arenaMaxChunk  = 4096
)

func (d *listDecoder) chunkSize(decoded int) int {
	left := d.r.Remaining()
	size := left / arenaBitsPerID
	if used := d.r.Pos() - d.start; decoded > 0 && used > 0 {
		size = int(int64(left) * int64(decoded) / int64(used))
		size += size / 8
	}
	return min(max(size, arenaMinChunk), arenaMaxChunk)
}

// alloc returns an exact-sized slice for an n-ID list. Callers have
// already checked n against the bits left to read (readCount), so a
// hostile count cannot ask for more than the stream could fill.
func (d *listDecoder) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	decoded := d.ids
	d.ids += n
	if n > len(d.chunk) {
		size := d.chunkSize(decoded)
		if n >= size {
			// Too long to share a chunk: its own allocation, and the
			// current chunk keeps serving the short lists around it.
			return make([]int32, n)
		}
		d.chunk = make([]int32, size)
	}
	out := d.chunk[:n:n]
	d.chunk = d.chunk[n:]
	return out
}

// readRun fills dst with the len(dst) values of a run written by
// writeRun. When bound is positive every decoded value is validated
// against [0, bound) as it is produced — a minimal binary first value
// cannot escape, but a corrupt gap can push the running sum past the
// bound (or wrap int32), and fusing the check into the decode loop
// spares callers a second O(E) validation pass over every decoded
// graph.
func (d *listDecoder) readRun(dst []int32) error {
	if len(dst) == 0 {
		return nil
	}
	var cur int32
	if d.bound > 0 {
		v, err := coding.ReadMinimalBinary(d.r, d.bound)
		if err != nil {
			return err
		}
		cur = int32(v)
	} else {
		v, err := coding.ReadGamma(d.r)
		if err != nil {
			return err
		}
		cur = int32(v - 1)
	}
	dst[0] = cur
	for i := 1; i < len(dst); i++ {
		gap, err := d.gc.read(d.r)
		if err != nil {
			return err
		}
		if d.bound > 0 {
			// gap spans the full uint64 range, so int64(gap) can be
			// negative or wrap the sum past MaxInt64 (which lands
			// negative, since cur is non-negative); nv < 0 || nv >= bound
			// rejects every corrupt gap.
			nv := int64(cur) + int64(gap)
			if nv < 0 || nv >= int64(d.bound) {
				return fmt.Errorf("refenc: gap %d escapes run bound [0,%d)", gap, d.bound)
			}
			cur = int32(nv)
		} else {
			cur += int32(gap)
		}
		dst[i] = cur
	}
	return nil
}

// readCount reads a gamma0-coded degree or extra count and rejects one
// the rest of the stream cannot hold, before anything is allocated for
// it: every value of a run but the first costs at least one bit, and
// the first costs none under bound 1. The check also keeps the
// conversion to int safe — a count of 2^63 or more would turn negative
// and decode as an empty run.
func (d *listDecoder) readCount() (int, error) {
	n, err := coding.ReadGamma0(d.r)
	if err != nil {
		return 0, err
	}
	if n > uint64(d.r.Remaining())+1 {
		return 0, fmt.Errorf("refenc: %d values claimed with %d bits left", n, d.r.Remaining())
	}
	return int(n), nil
}

// readDirect decodes a list stored without a reference: {degree,
// gap-coded targets}.
func (d *listDecoder) readDirect() ([]int32, error) {
	deg, err := d.readCount()
	if err != nil {
		return nil, err
	}
	out := d.alloc(deg)
	return out, d.readRun(out)
}

// readReferenced decodes a list stored against ref: {RLE copy
// bit-vector over ref, extra count, gap-coded extras}.
func (d *listDecoder) readReferenced(ref []int32) ([]int32, error) {
	var err error
	if d.bits, err = coding.ReadRLEBits(d.r, len(ref), d.bits); err != nil {
		return nil, err
	}
	nExtra, err := d.readCount()
	if err != nil {
		return nil, err
	}
	if cap(d.extras) < nExtra {
		d.extras = make([]int32, max(nExtra, 2*cap(d.extras)))
	}
	extras := d.extras[:nExtra]
	if err := d.readRun(extras); err != nil {
		return nil, err
	}
	nShared := 0
	for _, b := range d.bits {
		if b {
			nShared++
		}
	}
	// Merge selected reference entries with extras (both sorted, and
	// disjoint by construction).
	out := d.alloc(nShared + nExtra)
	k, ei := 0, 0
	for i, b := range d.bits {
		if !b {
			continue
		}
		for ei < nExtra && extras[ei] < ref[i] {
			out[k] = extras[ei]
			k++
			ei++
		}
		out[k] = ref[i]
		k++
	}
	copy(out[k:], extras[ei:])
	return out, nil
}

func encodeWindow(w *bitio.Writer, lists [][]int32, window int, bound uint64, gc GapCode) (Stats, error) {
	if window < 0 {
		window = 0
	}
	startBits := w.BitLen()
	var st Stats
	st.Lists = len(lists)
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
			writeOneList(w, nil, list, bound, gc)
		} else {
			writeOneList(w, lists[i-bestOff], list, bound, gc)
			st.Referenced++
		}
	}
	st.Bits = w.BitLen() - startBits + 3 // +3 header bits
	return st, nil
}

// DecodeLists reads m lists previously written by EncodeLists with no
// TargetBound.
func DecodeLists(r *bitio.Reader, m int) ([][]int32, error) {
	return DecodeListsBounded(r, m, 0)
}

// DecodeListsBounded reads m lists previously written by EncodeLists
// with the given TargetBound (0 = unbounded). The returned lists are
// exact-sized slices of shared arena chunks; they are never appended
// to.
func DecodeListsBounded(r *bitio.Reader, m int, bound uint64) ([][]int32, error) {
	exact, err := r.ReadBool()
	if err != nil {
		return nil, err
	}
	gcBits, err := r.ReadBits(2)
	if err != nil {
		return nil, err
	}
	d := &listDecoder{r: r, bound: bound, gc: GapCode(gcBits), start: r.Pos()}
	if exact {
		return d.decodeExact(m)
	}
	lists := make([][]int32, m)
	for i := 0; i < m; i++ {
		off, err := coding.ReadGamma0(r)
		if err != nil {
			return nil, err
		}
		switch {
		case off == 0:
			lists[i], err = d.readDirect()
		case off > uint64(i):
			// Compared unsigned: a designator of 2^63 or more would turn
			// negative as an int and index past the lists decoded so far.
			return nil, fmt.Errorf("refenc: list %d references out of range", i)
		default:
			lists[i], err = d.readReferenced(lists[i-int(off)])
		}
		if err != nil {
			return nil, err
		}
	}
	return lists, nil
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
	for pos, v := range order {
		coding.WriteMinimalBinary(w, uint64(v), uint64(m))
		if parent[v] == root {
			coding.WriteGamma0(w, 0)
			writeOneList(w, nil, lists[v], bound, gc)
		} else {
			back := pos - posOf[parent[v]]
			coding.WriteGamma0(w, uint64(back))
			writeOneList(w, lists[parent[v]], lists[v], bound, gc)
			st.Referenced++
		}
	}
	st.Bits = w.BitLen() - startBits + 3
	return st, nil
}

func (d *listDecoder) decodeExact(m int) ([][]int32, error) {
	lists := make([][]int32, m)
	decodedByPos := make([][]int32, m)
	seen := make([]bool, m)
	for pos := 0; pos < m; pos++ {
		vi, err := coding.ReadMinimalBinary(d.r, uint64(m))
		if err != nil {
			return nil, err
		}
		v := int(vi)
		if seen[v] {
			return nil, fmt.Errorf("refenc: node %d decoded twice", v)
		}
		seen[v] = true
		back, err := coding.ReadGamma0(d.r)
		if err != nil {
			return nil, err
		}
		var lst []int32
		switch {
		case back == 0:
			lst, err = d.readDirect()
		case back > uint64(pos):
			// Unsigned for the same reason as the window strategy's
			// designator.
			return nil, fmt.Errorf("refenc: position %d references out of range", pos)
		default:
			lst, err = d.readReferenced(decodedByPos[pos-int(back)])
		}
		if err != nil {
			return nil, err
		}
		decodedByPos[pos] = lst
		lists[v] = lst
	}
	return lists, nil
}
