package refenc

import (
	"errors"
	"math"
	"slices"
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

// errTooManyIDs refuses a list set whose offsets would not fit int32. No
// encoder writes one; a hostile stream can ask for it by referencing a
// long list over and over, a few bits a copy.
var errTooManyIDs = errors.New("refenc: list set holds more than 2^31 IDs")

// decodeScratch is what a decode needs only while it runs. It is pooled
// so that a decode allocates what it returns and nothing else.
type decodeScratch struct {
	ids    []int32 // the IDs of the lists decoded so far
	off    []int32 // their offsets
	runs   []int32 // the runs a referenced list copies: [first, after last) index pairs
	extras []int32 // its extra targets, before the merge
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// A Builder accumulates a Lists one list at a time, for decoders that
// learn a list's length only by decoding it: append the next list's IDs
// to IDs, then call End. The IDs and their offsets gather in pooled
// scratch, which may move as it grows; listsAt copies them out at their
// exact size. A decoder that fails just drops its builder: the scratch
// is collected.
type Builder struct {
	IDs []int32
	off []int32
	sc  *decodeScratch
}

// NewBuilder starts a set expected to hold m lists.
func NewBuilder(m int) Builder {
	sc := scratchPool.Get().(*decodeScratch)
	return Builder{IDs: sc.ids[:0], off: append(slices.Grow(sc.off[:0], m+1), 0), sc: sc}
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

// listsAt copies the lists ended so far out of the scratch into one
// block, list k at index at[k] (at is a permutation of them; nil keeps
// their order). Off and IDs are each capped at their own length, so a
// set costs one allocation and MemSize is what two arrays would hold.
func (b *Builder) listsAt(at []int32) Lists {
	m, n := len(b.off)-1, len(b.IDs)
	block := make([]int32, m+1+n)
	l := Lists{Off: block[: m+1 : m+1], IDs: block[m+1:]}
	if at == nil {
		copy(l.Off, b.off)
		copy(l.IDs, b.IDs)
		return l
	}
	for k, i := range at {
		l.Off[i+1] = b.off[k+1] - b.off[k]
	}
	for i := range at {
		l.Off[i+1] += l.Off[i]
	}
	for k, i := range at {
		copy(l.IDs[l.Off[i]:], b.List(k))
	}
	return l
}

// release ends a builder's use, whether its decode succeeded or not;
// nothing it held may be used after.
func (b *Builder) release() {
	b.sc.ids, b.sc.off = b.IDs, b.off
	scratchPool.Put(b.sc)
}
