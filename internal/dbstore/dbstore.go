// Package dbstore implements the paper's relational baseline: adjacency
// lists stored as rows of a database table (the paper used PostgreSQL),
// accessed through a B+tree index and a buffer pool. The engine is
// built from scratch on internal/pager (slotted heap pages + LRU buffer
// pool) and internal/btree; the query path is the classic index probe →
// heap fetch → tuple decode, with all page reads accounted by the iosim
// disk model.
//
// Long adjacency lists are chunked across multiple rows (as a row-store
// would TOAST them); the index key is pageID*256 + chunk, so one range
// scan per page reassembles its list.
package dbstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"snode/internal/btree"
	"snode/internal/iosim"
	"snode/internal/pager"
	"snode/internal/store"
	"snode/internal/webgraph"
)

const (
	heapFileName  = "db.heap"
	indexFileName = "db.idx"

	// chunkTargets bounds targets per row so rows fit a heap page.
	chunkTargets = 1500
	maxChunks    = 256
)

func indexKey(p webgraph.PageID, chunk int) int64 {
	return int64(p)*maxChunks + int64(chunk)
}

// Build writes the table and index into dir. layout gives the heap row
// order — the table is populated as pages are crawled, so rows for
// nearby page IDs are scattered across heap pages (an unclustered
// table, as the paper's PostgreSQL setup would be). nil means ID order.
func Build(c *webgraph.Corpus, dir string, layout []webgraph.PageID) error {
	hp := pager.Create(filepath.Join(dir, heapFileName))
	heap := newHeapFile(hp)
	ip := pager.Create(filepath.Join(dir, indexFileName))
	idx, err := btree.New(ip)
	if err != nil {
		return err
	}
	g := c.Graph
	if layout == nil {
		layout = make([]webgraph.PageID, g.NumPages())
		for i := range layout {
			layout[i] = webgraph.PageID(i)
		}
	}
	row := make([]byte, 0, 4+4*chunkTargets)
	for _, p := range layout {
		adj := g.Out(p)
		chunk := 0
		for {
			part := adj
			if len(part) > chunkTargets {
				part = adj[:chunkTargets]
			}
			adj = adj[len(part):]
			row = row[:0]
			var scratch [4]byte
			binary.LittleEndian.PutUint32(scratch[:], uint32(p))
			row = append(row, scratch[:]...)
			for _, t := range part {
				binary.LittleEndian.PutUint32(scratch[:], uint32(t))
				row = append(row, scratch[:]...)
			}
			rid, err := heap.insert(row)
			if err != nil {
				return err
			}
			if chunk >= maxChunks {
				return fmt.Errorf("dbstore: page %d needs too many chunks", p)
			}
			if err := idx.Insert(indexKey(p, chunk), ridKey(rid)); err != nil {
				return err
			}
			chunk++
			if len(adj) == 0 {
				break
			}
		}
	}
	if err := hp.Close(); err != nil {
		return err
	}
	return ip.Close()
}

// Rep is an opened relational store.
type Rep struct {
	n       int
	acc     *iosim.Accountant
	hp, ip  *pager.Pager
	heap    *heapFile
	idx     *btree.Tree
	domains store.DomainRanges
}

// Open prepares the store for querying with the given buffer-pool
// budget (split between index and heap pools, as a database's shared
// buffer cache would hold both).
func Open(c *webgraph.Corpus, dir string, cacheBudget int64, model iosim.Model) (*Rep, error) {
	acc := iosim.NewAccountant(model)
	frames := int(cacheBudget / pager.PageSize)
	if frames < 2 {
		frames = 2
	}
	hp, err := pager.OpenReadOnly(filepath.Join(dir, heapFileName), acc, frames/2)
	if err != nil {
		return nil, err
	}
	ip, err := pager.OpenReadOnly(filepath.Join(dir, indexFileName), acc, frames/2)
	if err != nil {
		hp.Close()
		return nil, err
	}
	idx, err := btree.Open(ip)
	if err != nil {
		hp.Close()
		ip.Close()
		return nil, err
	}
	return &Rep{
		n:       c.Graph.NumPages(),
		acc:     acc,
		hp:      hp,
		ip:      ip,
		heap:    newHeapFile(hp),
		idx:     idx,
		domains: store.NewDomainRanges(c.Pages),
	}, nil
}

// Name implements store.LinkStore.
func (r *Rep) Name() string { return "db" }

// NumPages implements store.LinkStore.
func (r *Rep) NumPages() int { return r.n }

// Out implements store.LinkStore.
func (r *Rep) Out(p webgraph.PageID, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	return r.OutFiltered(p, nil, buf)
}

// OutFiltered implements store.LinkStore: an index range scan over the
// page's chunk keys, a heap fetch per chunk, then tuple decode.
func (r *Rep) OutFiltered(p webgraph.PageID, f *store.Filter, buf []webgraph.PageID) ([]webgraph.PageID, error) {
	if p < 0 || int(p) >= r.n {
		return buf, fmt.Errorf("dbstore: page %d out of range", p)
	}
	var rids []RID
	err := r.idx.Scan(indexKey(p, 0), indexKey(p+1, 0), func(_, v int64) bool {
		rids = append(rids, ridFromKey(v))
		return true
	})
	if err != nil {
		return buf, err
	}
	for _, rid := range rids {
		row, err := r.heap.get(rid)
		if err != nil {
			return buf, err
		}
		if len(row) < 4 || (len(row)-4)%4 != 0 {
			return buf, fmt.Errorf("dbstore: page %d corrupt row", p)
		}
		if got := webgraph.PageID(binary.LittleEndian.Uint32(row[:4])); got != p {
			return buf, fmt.Errorf("dbstore: rid for page %d holds row of page %d", p, got)
		}
		for k := 4; k < len(row); k += 4 {
			t := webgraph.PageID(binary.LittleEndian.Uint32(row[k:]))
			if f.Accepts(t) {
				buf = append(buf, t)
			}
		}
	}
	return buf, nil
}

// Stats implements store.LinkStore.
func (r *Rep) Stats() store.AccessStats {
	return store.AccessStats{IO: r.acc.Stats(), GraphsLoaded: r.hp.Loads() + r.ip.Loads()}
}

// ResetStats implements store.LinkStore: counters are zeroed, the
// buffer pool stays warm (matching the other schemes' semantics).
func (r *Rep) ResetStats() {
	r.acc.Reset()
	r.hp.ResetLoads()
	r.ip.ResetLoads()
}

// ResetCache empties both buffer pools and resizes them to the budget.
func (r *Rep) ResetCache(budget int64) {
	frames := int(budget / pager.PageSize)
	if frames < 2 {
		frames = 2
	}
	r.hp.ResetPool(frames / 2)
	r.ip.ResetPool(frames / 2)
	r.acc.Reset()
}

// Close implements store.LinkStore.
func (r *Rep) Close() error {
	err1 := r.hp.Close()
	err2 := r.ip.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// SizeBytes implements store.Sized: heap + index files + domain index.
func (r *Rep) SizeBytes() int64 {
	return (r.hp.NumPages()+r.ip.NumPages())*pager.PageSize + r.domains.SizeBytes()
}
