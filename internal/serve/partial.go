package serve

import (
	"errors"
	"fmt"
	"math"

	"snode/internal/coding"
	"snode/internal/query"
	"snode/internal/webgraph"
)

// The router's scatter leg. A shard answers /query?q=N&partial=1 with
// its untruncated partial rows in one binary frame, through the same
// coding primitives and checks as the artifacts on disk:
//
//	version  uvarint, partialVersion
//	query    uvarint, 1..6
//	shard    varint, >= 0
//	nav_ms   8 bytes, float64 bits
//	rows     uvarint count, at most what the bytes left hold at partialRowMin a row
//	  group  Str
//	  key    Str
//	  value  8 bytes, float64 bits
//	  pages  uvarint count, then as many uvarint gaps >= 1: the first page
//	         + 1, then each page minus the one before (Q3's row only)
//
// and nothing after the last row. A version-1 frame, which sent Q3's
// members as one decimal-keyed row each, is refused by its version. The
// frame goes out under PartialContentType with a Content-Length; the
// router refuses a leg under any other type rather than guess at its body.

// PartialContentType is the media type of a partial frame.
const PartialContentType = "application/x-snode-partial"

// partialVersion is the frame's first byte.
const partialVersion = 2

// partialRowMin is the fewest bytes a row takes: two empty strings'
// lengths, the value and an empty page set's count.
const partialRowMin = 1 + 1 + 8 + 1

// The page-set refusals: a set that passes is strictly ascending.
var (
	errZeroGap      = errors.New("a zero gap repeats a page")
	errPageOverflow = errors.New("the gaps sum past the largest page ID")
	errPagesOffQ3   = errors.New("a page set on a row of a query other than Q3")
)

// PartialQueryResponse is one shard's answer to a partial leg:
// untruncated, group-tagged rows for the router's merge.
type PartialQueryResponse struct {
	Query    int
	Shard    int
	Partials []query.PartialRow
	NavMS    float64
}

// partialFrame is an encoded PartialQueryResponse, written as it is.
type partialFrame []byte

// encodePartial lays p down as one frame, in a buffer sized for it when
// the gaps take at most two bytes each.
func encodePartial(p *PartialQueryResponse) partialFrame {
	size := 32
	for _, r := range p.Partials {
		size += len(r.Group) + len(r.Key) + partialRowMin + 2*len(r.Pages)
	}
	w := coding.NewBuffer(make([]byte, 0, size))
	w.Uvarint(partialVersion)
	w.Uvarint(uint64(p.Query))
	w.Varint(int64(p.Shard))
	w.U64(math.Float64bits(p.NavMS))
	w.Uvarint(uint64(len(p.Partials)))
	for _, r := range p.Partials {
		w.Str(r.Group)
		w.Str(r.Key)
		w.U64(math.Float64bits(r.Value))
		w.Uvarint(uint64(len(r.Pages)))
		last := int64(-1)
		for _, pg := range r.Pages {
			w.Uvarint(uint64(int64(pg) - last))
			last = int64(pg)
		}
	}
	return w.Bytes()
}

// DecodePartial reads one partial frame, or refuses it by name: an
// unknown version, a query outside 1..6, a negative shard, a row or page
// count the bytes cannot hold (refused before anything is sized by it),
// a zero gap, gaps summing past math.MaxInt32, pages off Q3, a field the
// frame ends inside, or bytes after the last row. The rows' groups and
// keys are substrings of one string made from b and a row's pages one
// slice, so the allocations do not grow with the rows or the pages.
func DecodePartial(b []byte) (PartialQueryResponse, error) {
	r := coding.NewReader(b)
	version := r.Uint8()
	p := PartialQueryResponse{Query: int(r.Uint8()), Shard: int(r.Int32())}
	var err error
	switch {
	case r.Err() != nil:
	case version != partialVersion:
		err = fmt.Errorf("version %d, want %d", version, partialVersion)
	case p.Query < int(query.Q1) || p.Query > int(query.Q6):
		err = fmt.Errorf("query %d not in 1..6", p.Query)
	case p.Shard < 0:
		err = fmt.Errorf("shard %d", p.Shard)
	}
	if err != nil {
		return PartialQueryResponse{}, fmt.Errorf("partial frame: %w", err)
	}
	p.NavMS = math.Float64frombits(r.U64())
	p.Partials = make([]query.PartialRow, r.Count(math.MaxInt32, partialRowMin))
	for i := range p.Partials {
		row := &p.Partials[i]
		row.Group = r.Str()
		row.Key = r.Str()
		row.Value = math.Float64frombits(r.U64())
		if row.Pages, err = readPages(r, p.Query); err != nil {
			return PartialQueryResponse{}, fmt.Errorf("partial frame: row %d: %w", i, err)
		}
	}
	if r.End(); r.Err() != nil {
		return PartialQueryResponse{}, fmt.Errorf("partial frame: %w", r.Err())
	}
	return p, nil
}

// readPages reads one row's page set for query q, nil when it is empty.
// Once r has failed its result is unused: the frame is refused at End.
func readPages(r *coding.Reader, q int) ([]webgraph.PageID, error) {
	n := r.Count(math.MaxInt32, 1)
	if n == 0 {
		return nil, nil
	}
	if q != int(query.Q3) {
		return nil, errPagesOffQ3
	}
	pages := make([]webgraph.PageID, n)
	last := int64(-1)
	for i := range pages {
		switch gap := r.Uvarint(); {
		case gap == 0 && r.Err() == nil:
			return nil, fmt.Errorf("page %d: %w", i, errZeroGap)
		case gap > uint64(math.MaxInt32-last):
			return nil, fmt.Errorf("page %d: gap %d from %d: %w", i, gap, last, errPageOverflow)
		default:
			last += int64(gap)
			pages[i] = webgraph.PageID(last)
		}
	}
	return pages, nil
}
