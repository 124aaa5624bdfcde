package delta

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"snode/internal/coding"
	"snode/internal/iosim"
	"snode/internal/webgraph"
)

// Delta segments are the immutable middle layers of the overlay: a
// sealed memtable sorted by (src, dst) and written to disk in a
// binary format built for point lookups —
//
//	magic   "SNDELTA1"                      8 bytes
//	numSrc  uint32 LE                       4 bytes
//	index   numSrc × {src int32, n int32,
//	         off int64}                     16 bytes each
//	data    per src, n × {dst int32,
//	         op uint8}                      5 bytes each
//
// The index is small (one entry per mutated source page) and loaded
// into memory when the segment opens, like the S-Node directory; data
// blocks are read on demand through an iosim.File, so every lookup's
// seek and transfer cost is charged to the overlay's accountant and
// shows up in the modeled navigation time of the update experiments.

const segMagic = "SNDELTA1"

const (
	segHeaderBytes    = 8 + 4
	segIndexEntrySize = 16
	segDataEntrySize  = 5
)

// segIndexEntry locates one source page's block in the data region.
type segIndexEntry struct {
	src webgraph.PageID
	n   int32
	off int64 // relative to the data region start
}

// segment is an opened, immutable delta segment.
type segment struct {
	path    string
	f       *iosim.File
	index   []segIndexEntry
	dataOff int64 // absolute file offset of the data region
	size    int64 // total file size
	entries int64 // total (src,dst) records
	seq     uint64
}

// writeSegmentFile serializes sorted page ops to path. Writes are not
// modeled (iosim charges reads only, as for every built representation)
// and the file is fsync-free: segments are rebuildable from the crawl.
func writeSegmentFile(path string, pos []pageOps) error {
	return coding.WriteFile(path, func(w *coding.Writer) error {
		w.Write([]byte(segMagic))
		w.U32(uint32(len(pos)))
		off := int64(0)
		for _, po := range pos {
			w.U32(uint32(po.src))
			w.U32(uint32(len(po.ops)))
			w.U64(uint64(off))
			off += int64(len(po.ops)) * segDataEntrySize
		}
		var rec [segDataEntrySize]byte
		for _, po := range pos {
			for _, e := range po.ops {
				binary.LittleEndian.PutUint32(rec[0:], uint32(e.dst))
				rec[4] = byte(e.op)
				w.Write(rec[:])
			}
		}
		return nil
	})
}

// openSegment opens path under the accountant and loads its index. The
// header+index read is charged as one sequential read.
func openSegment(path string, acc *iosim.Accountant, seq uint64) (*segment, error) {
	f, err := acc.Open(path)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size < segHeaderBytes {
		f.Close()
		return nil, fmt.Errorf("delta: segment %s truncated (%d bytes)", path, size)
	}
	var hdr [segHeaderBytes]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("delta: segment %s header: %w", path, err)
	}
	if string(hdr[:8]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("delta: segment %s has bad magic %q", path, hdr[:8])
	}
	numSrc := int64(binary.LittleEndian.Uint32(hdr[8:]))
	dataOff := segHeaderBytes + numSrc*segIndexEntrySize
	if dataOff > size {
		f.Close()
		return nil, fmt.Errorf("delta: segment %s index overruns file", path)
	}
	s := &segment{path: path, f: f, dataOff: dataOff, size: size, seq: seq}
	if numSrc > 0 {
		raw := make([]byte, numSrc*segIndexEntrySize)
		if _, err := f.ReadAt(raw, segHeaderBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("delta: segment %s index: %w", path, err)
		}
		s.index = make([]segIndexEntry, numSrc)
		for i := range s.index {
			rec := raw[i*segIndexEntrySize:]
			s.index[i] = segIndexEntry{
				src: webgraph.PageID(binary.LittleEndian.Uint32(rec[0:])),
				n:   int32(binary.LittleEndian.Uint32(rec[4:])),
				off: int64(binary.LittleEndian.Uint64(rec[8:])),
			}
			if err := checkIndexEntry(s.index, i, size-dataOff); err != nil {
				f.Close()
				return nil, fmt.Errorf("delta: segment %s entry %d: %w", path, i, err)
			}
			s.entries += int64(s.index[i].n)
		}
	}
	return s, nil
}

// checkIndexEntry refuses index entry i unless its block lies inside a
// data region of dataLen bytes and its source follows entry i-1's: find
// binary-searches the sources, and all and opsInto slice the blocks.
// The end is compared without an addition that could wrap.
func checkIndexEntry(index []segIndexEntry, i int, dataLen int64) error {
	e := index[i]
	switch {
	case e.n < 0:
		return fmt.Errorf("negative op count %d", e.n)
	case e.off < 0:
		return fmt.Errorf("negative block offset %d", e.off)
	case e.off > dataLen || int64(e.n)*segDataEntrySize > dataLen-e.off:
		return fmt.Errorf("block of %d ops at offset %d ends past the %d-byte data region", e.n, e.off, dataLen)
	case i > 0 && e.src <= index[i-1].src:
		return fmt.Errorf("source %d does not ascend from %d", e.src, index[i-1].src)
	}
	return nil
}

// decodeRecord reads one data record, refusing an op byte that is
// neither add nor remove.
func decodeRecord(rec []byte) (dstOp, error) {
	e := dstOp{dst: webgraph.PageID(binary.LittleEndian.Uint32(rec[0:])), op: Op(rec[4])}
	if e.op != OpAdd && e.op != OpRemove {
		return e, fmt.Errorf("unknown op byte %d", rec[4])
	}
	return e, nil
}

// find locates src's index entry without I/O (presence probe for the
// pass-through fast path).
func (s *segment) find(src webgraph.PageID) (segIndexEntry, bool) {
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].src >= src })
	if i < len(s.index) && s.index[i].src == src {
		return s.index[i], true
	}
	return segIndexEntry{}, false
}

// opsInto reads src's block (charged through iosim) and merges it into
// dst, newest-wins relative to earlier layers by overwriting.
func (s *segment) opsInto(ctx context.Context, src webgraph.PageID, dst map[webgraph.PageID]Op) (read bool, err error) {
	e, ok := s.find(src)
	if !ok || e.n == 0 {
		return false, nil
	}
	buf := make([]byte, int(e.n)*segDataEntrySize)
	if _, err := s.f.ReadAtCtx(ctx, buf, s.dataOff+e.off); err != nil {
		return false, fmt.Errorf("delta: segment %s read src %d: %w", s.path, src, err)
	}
	for i := int32(0); i < e.n; i++ {
		r, err := decodeRecord(buf[i*segDataEntrySize:])
		if err != nil {
			return false, fmt.Errorf("delta: segment %s src %d: %w", s.path, src, err)
		}
		dst[r.dst] = r.op
	}
	return true, nil
}

// all reads the whole data region in one charged sequential read and
// returns every page's ops in (src, dst) order — the compactor's merge
// input path.
func (s *segment) all(ctx context.Context) ([]pageOps, error) {
	out := make([]pageOps, 0, len(s.index))
	if len(s.index) == 0 {
		return out, nil
	}
	buf := make([]byte, s.size-s.dataOff)
	if len(buf) > 0 {
		if _, err := s.f.ReadAtCtx(ctx, buf, s.dataOff); err != nil {
			return nil, fmt.Errorf("delta: segment %s scan: %w", s.path, err)
		}
	}
	for _, e := range s.index {
		po := pageOps{src: e.src, ops: make([]dstOp, e.n)}
		for i := int32(0); i < e.n; i++ {
			r, err := decodeRecord(buf[e.off+int64(i)*segDataEntrySize:])
			if err != nil {
				return nil, fmt.Errorf("delta: segment %s src %d: %w", s.path, e.src, err)
			}
			po.ops[i] = r
		}
		out = append(out, po)
	}
	return out, nil
}

// close releases the file handle (the file itself stays on disk; the
// overlay removes files it retires).
func (s *segment) close() error { return s.f.Close() }

// mergePageOps combines layer snapshots oldest..newest into one sorted
// latest-wins snapshot — the compactor's merge kernel, also used to
// seal a memtable together with whatever it superseded.
func mergePageOps(layers ...[]pageOps) []pageOps {
	merged := map[webgraph.PageID]map[webgraph.PageID]Op{}
	for _, layer := range layers {
		for _, po := range layer {
			ops := merged[po.src]
			if ops == nil {
				ops = map[webgraph.PageID]Op{}
				merged[po.src] = ops
			}
			for _, e := range po.ops {
				ops[e.dst] = e.op
			}
		}
	}
	out := make([]pageOps, 0, len(merged))
	for src, ops := range merged {
		po := pageOps{src: src, ops: make([]dstOp, 0, len(ops))}
		for d, op := range ops {
			po.ops = append(po.ops, dstOp{dst: d, op: op})
		}
		sort.Slice(po.ops, func(a, b int) bool { return po.ops[a].dst < po.ops[b].dst })
		out = append(out, po)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].src < out[b].src })
	return out
}

// opsEntryCount sums the records in a snapshot.
func opsEntryCount(pos []pageOps) int64 {
	var n int64
	for _, po := range pos {
		n += int64(len(po.ops))
	}
	return n
}
