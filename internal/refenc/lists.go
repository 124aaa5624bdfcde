package refenc

import (
	"errors"
	"math"
	"sync"
)

// Lists is a decoded set of adjacency lists in the one form every
// decoder of this repository produces and every cache holds: list i is
// IDs[Off[i]:Off[i+1]]. Two arrays however many lists there are, and no
// pointer in either, so a cached graph costs the collector nothing to
// scan and a list costs four bytes beyond its IDs. A Lists is immutable
// once built; the zero value is the empty set.
type Lists struct {
	Off []int32 // len Len()+1, ascending from 0
	IDs []int32
}

// Len reports the number of lists.
func (l Lists) Len() int { return max(len(l.Off)-1, 0) }

// At returns list i, cut to its size: appending to it reallocates
// rather than writing into list i+1.
func (l Lists) At(i int) []int32 {
	lo, hi := l.Off[i], l.Off[i+1]
	return l.IDs[lo:hi:hi]
}

// MemSize is what the two arrays occupy, slack included.
func (l Lists) MemSize() int64 { return 4 * int64(cap(l.Off)+cap(l.IDs)) }

// placedAt returns the set with list k moved to index at[k]; at is a
// permutation of [0, Len()).
func (l Lists) placedAt(at []int32) Lists {
	out := Lists{Off: make([]int32, len(l.Off)), IDs: make([]int32, 0, len(l.IDs))}
	for k, i := range at {
		out.Off[i+1] = l.Off[k+1] - l.Off[k]
	}
	for i := range at {
		out.Off[i+1] += out.Off[i]
	}
	out.IDs = out.IDs[:len(l.IDs)]
	for k, i := range at {
		copy(out.IDs[out.Off[i]:], l.At(k))
	}
	return out
}

// errTooManyIDs refuses a list set whose offsets would not fit int32. No
// encoder writes one; a hostile stream can ask for it by referencing a
// long list over and over, a few bits a copy.
var errTooManyIDs = errors.New("refenc: list set holds more than 2^31 IDs")

// decodeScratch is what a decode needs only while it runs. It is pooled
// so that a decode allocates what it returns and nothing else.
type decodeScratch struct {
	ids    []int32 // the IDs of the lists decoded so far
	off    []int32 // their offsets, for a decode that returns none of them
	runs   []int32 // the runs a referenced list copies: [first, after last) index pairs
	extras []int32 // its extra targets, before the merge
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// A Builder accumulates a Lists one list at a time, for decoders that
// learn a list's length only by decoding it: append the next list's IDs
// to IDs, then call End. The IDs gather in pooled scratch, which may
// move as it grows; Lists copies them out at their exact size.
type Builder struct {
	IDs []int32
	off []int32
	sc  *decodeScratch
}

// NewBuilder starts a set expected to hold m lists.
func NewBuilder(m int) Builder {
	sc := scratchPool.Get().(*decodeScratch)
	return Builder{IDs: sc.ids[:0], off: append(make([]int32, 0, m+1), 0), sc: sc}
}

// newScratchBuilder starts a set kept in pooled scratch offsets and all,
// for a decoder that copies out at most one of its lists and then
// releases the builder.
func newScratchBuilder() Builder {
	sc := scratchPool.Get().(*decodeScratch)
	return Builder{IDs: sc.ids[:0], off: append(sc.off[:0], 0), sc: sc}
}

// End closes the list appended to IDs since the last End.
func (b *Builder) End() error {
	if len(b.IDs) > math.MaxInt32 {
		return errTooManyIDs
	}
	b.off = append(b.off, int32(len(b.IDs)))
	return nil
}

// List returns list i of those ended so far. It stays valid, and
// unchanged, while later lists are appended.
func (b *Builder) List(i int) []int32 { return b.IDs[b.off[i]:b.off[i+1]] }

// Lists returns the set built and ends the builder's use. A decoder
// that fails instead just drops its builder: the scratch is collected.
func (b *Builder) Lists() Lists {
	ids := make([]int32, len(b.IDs))
	copy(ids, b.IDs)
	b.sc.ids = b.IDs
	scratchPool.Put(b.sc)
	return Lists{Off: b.off, IDs: ids}
}

// release ends a scratch builder's use, whether its decode succeeded or
// not; nothing it held may be used after.
func (b *Builder) release() {
	b.sc.ids, b.sc.off = b.IDs, b.off
	scratchPool.Put(b.sc)
}
