package coding

import (
	"container/heap"
	"errors"
	"sort"

	"snode/internal/bitio"
)

// Huffman implements canonical Huffman coding over a dense symbol space
// [0, n). The paper uses Huffman codes in two places: the plain Huffman
// baseline (codes per page by in-degree) and the supernode graph (codes
// per supernode by in-degree), so that frequently referenced vertices get
// short codes.
type Huffman struct {
	codes []huffCode
	// Canonical decode tables, indexed by code length 1..maxLen.
	firstCode  []uint64 // first canonical code of each length
	firstIndex []int32  // index into symByCode of that code
	counts     []int32  // number of codes of each length
	symByCode  []int32  // symbols in canonical order
	minLen     int      // shortest and longest code word
	maxLen     int
}

type huffCode struct {
	code uint64
	len  uint8
}

// ErrHuffmanEmpty is returned when building over zero symbols.
var ErrHuffmanEmpty = errors.New("coding: huffman over empty alphabet")

// maxHuffmanLen bounds code lengths so codes fit comfortably in uint64
// operations. With length-limiting via frequency flooring this is never
// hit in practice for web-graph degree distributions.
const maxHuffmanLen = 58

type huffNode struct {
	freq        int64
	sym         int32 // -1 for internal
	left, right int32 // node indices, -1 for leaves
	depthMax    int32 // used for tie-breaking to keep trees shallow
}

type huffHeap struct {
	nodes *[]huffNode
	idx   []int32
}

func (h huffHeap) Len() int { return len(h.idx) }
func (h huffHeap) Less(i, j int) bool {
	a, b := (*h.nodes)[h.idx[i]], (*h.nodes)[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.depthMax < b.depthMax
}
func (h huffHeap) Swap(i, j int)       { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *huffHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int32)) }
func (h *huffHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// NewHuffman builds a canonical Huffman code for the given symbol
// frequencies. Zero frequencies are treated as one so every symbol
// receives a (long) code; negative frequencies are an error.
func NewHuffman(freqs []int64) (*Huffman, error) {
	n := len(freqs)
	if n == 0 {
		return nil, ErrHuffmanEmpty
	}
	if n == 1 {
		// Degenerate alphabet: one symbol, one-bit code.
		h := &Huffman{codes: []huffCode{{code: 0, len: 1}}}
		h.buildDecodeTables()
		return h, nil
	}

	nodes := make([]huffNode, 0, 2*n)
	hp := huffHeap{nodes: &nodes}
	for i, f := range freqs {
		if f < 0 {
			return nil, errors.New("coding: negative huffman frequency")
		}
		if f == 0 {
			f = 1
		}
		nodes = append(nodes, huffNode{freq: f, sym: int32(i), left: -1, right: -1})
		hp.idx = append(hp.idx, int32(i))
	}
	heap.Init(&hp)
	for hp.Len() > 1 {
		a := heap.Pop(&hp).(int32)
		b := heap.Pop(&hp).(int32)
		d := nodes[a].depthMax
		if nodes[b].depthMax > d {
			d = nodes[b].depthMax
		}
		nodes = append(nodes, huffNode{
			freq: nodes[a].freq + nodes[b].freq,
			sym:  -1, left: a, right: b, depthMax: d + 1,
		})
		heap.Push(&hp, int32(len(nodes)-1))
	}
	root := hp.idx[0]

	// Compute code lengths by iterative DFS.
	lengths := make([]uint8, n)
	type frame struct {
		node  int32
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.node]
		if nd.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			if d > maxHuffmanLen {
				return nil, errors.New("coding: huffman code length overflow")
			}
			lengths[nd.sym] = d
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}

	h := &Huffman{codes: make([]huffCode, n)}
	for i, l := range lengths {
		h.codes[i].len = l
	}
	h.assignCanonical()
	h.buildDecodeTables()
	return h, nil
}

// assignCanonical assigns canonical code words from the computed code
// lengths: symbols sorted by (length, symbol) receive consecutive codes.
func (h *Huffman) assignCanonical() {
	n := len(h.codes)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := h.codes[order[a]], h.codes[order[b]]
		if ca.len != cb.len {
			return ca.len < cb.len
		}
		return order[a] < order[b]
	})
	var code uint64
	var prevLen uint8
	for _, sym := range order {
		l := h.codes[sym].len
		code <<= (l - prevLen)
		h.codes[sym].code = code
		code++
		prevLen = l
	}
}

func (h *Huffman) buildDecodeTables() {
	h.minLen, h.maxLen = int(h.codes[0].len), 0
	for _, c := range h.codes {
		h.minLen = min(h.minLen, int(c.len))
		h.maxLen = max(h.maxLen, int(c.len))
	}
	h.counts = make([]int32, h.maxLen+1)
	for _, c := range h.codes {
		h.counts[c.len]++
	}
	h.firstCode = make([]uint64, h.maxLen+2)
	h.firstIndex = make([]int32, h.maxLen+2)
	var code uint64
	var index int32
	for l := 1; l <= h.maxLen; l++ {
		h.firstCode[l] = code
		h.firstIndex[l] = index
		code = (code + uint64(h.counts[l])) << 1
		index += h.counts[l]
	}
	// Symbols in canonical order.
	h.symByCode = make([]int32, len(h.codes))
	order := make([]int32, len(h.codes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := h.codes[order[a]], h.codes[order[b]]
		if ca.len != cb.len {
			return ca.len < cb.len
		}
		return order[a] < order[b]
	})
	copy(h.symByCode, order)
}

// CodeLen reports the code length in bits for symbol s.
func (h *Huffman) CodeLen(s int32) int { return int(h.codes[s].len) }

// Encode appends the code for symbol s to w.
func (h *Huffman) Encode(w *bitio.Writer, s int32) {
	c := h.codes[s]
	w.WriteBits(c.code, uint(c.len))
}

// Decode reads one symbol from r. The code is canonical, so the words
// of one length are consecutive numbers and a window of the stream
// holds a word of length l exactly when its top l bits fall in that
// length's range: one load, then a compare per length, shortest first.
// A word the window does not wholly hold — cut by the end of the
// stream, or no word at all — is read again bit by bit, which reports
// what is wrong with it.
func (h *Huffman) Decode(r *bitio.Reader) (int32, error) {
	w := r.Window()
	for l := h.minLen; l <= h.maxLen; l++ {
		if d := w>>(64-uint(l)) - h.firstCode[l]; d < uint64(h.counts[l]) {
			if !r.Consume(l) {
				break
			}
			return h.symByCode[h.firstIndex[l]+int32(d)], nil
		}
	}
	return h.decodeBitwise(r)
}

// decodeBitwise reads one symbol a bit at a time.
func (h *Huffman) decodeBitwise(r *bitio.Reader) (int32, error) {
	var code uint64
	for l := 1; l <= h.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		cnt := h.counts[l]
		if cnt == 0 {
			continue
		}
		first := h.firstCode[l]
		if code < first+uint64(cnt) && code >= first {
			return h.symByCode[h.firstIndex[l]+int32(code-first)], nil
		}
	}
	return 0, ErrBadCode
}

// TotalBits reports the total encoded size of a message with the given
// per-symbol occurrence counts (counts[i] occurrences of symbol i).
func (h *Huffman) TotalBits(counts []int64) int64 {
	var total int64
	for i, c := range counts {
		total += c * int64(h.codes[i].len)
	}
	return total
}
