package serve

import (
	"fmt"
	"math"

	"snode/internal/coding"
	"snode/internal/query"
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
//
// and nothing after the last row. The frame goes out under
// PartialContentType with a Content-Length; the router refuses a leg
// under any other type rather than guess at its body.

// PartialContentType is the media type of a partial frame.
const PartialContentType = "application/x-snode-partial"

// partialVersion is the frame's first byte.
const partialVersion = 1

// partialRowMin is the fewest bytes a row takes: two empty strings'
// lengths and the value.
const partialRowMin = 1 + 1 + 8

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

// encodePartial lays p down as one frame, in a buffer sized for it.
func encodePartial(p *PartialQueryResponse) partialFrame {
	size := 32
	for _, r := range p.Partials {
		size += len(r.Group) + len(r.Key) + partialRowMin
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
	}
	return w.Bytes()
}

// DecodePartial reads one partial frame, or refuses it by name: an
// unknown version, a query outside 1..6, a negative shard, a row count
// the bytes cannot hold (refused before anything is sized by it), a
// field the frame ends inside, or bytes after the last row. The rows'
// groups and keys are substrings of one string made from b, so decoding
// allocates the same few times whatever the row count.
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
	n := r.Count(math.MaxInt32, partialRowMin)
	if r.Err() == nil {
		p.Partials = make([]query.PartialRow, n)
		for i := range p.Partials {
			row := &p.Partials[i]
			row.Group = r.Str()
			row.Key = r.Str()
			row.Value = math.Float64frombits(r.U64())
		}
	}
	if r.End(); r.Err() != nil {
		return PartialQueryResponse{}, fmt.Errorf("partial frame: %w", r.Err())
	}
	return p, nil
}
