// Package pager provides fixed-size page storage with two modes:
//
//   - build mode: pages live in memory and are flushed to disk on
//     Close, which is how the relational baseline's heap file and
//     B+tree are constructed (builds are not part of the measured
//     experiments);
//   - read-only mode: pages are demand-loaded through an LRU buffer
//     pool whose reads are accounted by the iosim disk model, which is
//     the access path Figure 11's "DB" bars measure.
package pager

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"snode/internal/iosim"
)

// PageSize is the fixed page size, matching PostgreSQL's default.
const PageSize = 8192

// ErrReadOnly is returned on writes to a read-only pager.
var ErrReadOnly = errors.New("pager: read-only")

// Pager is a page file. Read-only pagers are safe for concurrent use:
// the buffer pool is guarded by a mutex (every lookup mutates LRU
// order, so even pure reads need it), and returned page buffers are
// private immutable copies that stay valid after eviction. Build mode
// is single-goroutine, like every other builder in this repository.
type Pager struct {
	// build mode
	path    string
	mem     [][]byte
	builder bool

	// read-only mode; mu guards the pool (counted in frames) and loads.
	mu     sync.Mutex
	file   *iosim.File
	nPages int64
	pool   *iosim.LRU[[]byte]
	loads  int64
}

// Create opens a new page file in build mode. The file is written on
// Close.
func Create(path string) *Pager {
	return &Pager{path: path, builder: true}
}

// Alloc appends a zeroed page and returns its number and buffer. Build
// mode only; the buffer stays valid and writable until Close.
func (p *Pager) Alloc() (int64, []byte, error) {
	if !p.builder {
		return 0, nil, ErrReadOnly
	}
	buf := make([]byte, PageSize)
	p.mem = append(p.mem, buf)
	return int64(len(p.mem) - 1), buf, nil
}

// Page returns the buffer of an existing page. In build mode it is
// writable; in read-only mode it comes from the buffer pool, must not
// be written, and stays valid even after eviction (frames are private
// copies, never recycled).
func (p *Pager) Page(no int64) ([]byte, error) {
	if p.builder {
		if no < 0 || no >= int64(len(p.mem)) {
			return nil, fmt.Errorf("pager: page %d out of range", no)
		}
		return p.mem[no], nil
	}
	if no < 0 || no >= p.nPages {
		return nil, fmt.Errorf("pager: page %d out of range", no)
	}
	// The lock covers the miss I/O too: concurrent misses on one pager
	// serialize, which keeps the pool and the load accounting exact.
	// (The concurrent serving path overlaps streams across stores, not
	// within one pager.)
	p.mu.Lock()
	defer p.mu.Unlock()
	if data, ok := p.pool.Get(no); ok {
		return data, nil
	}
	data := make([]byte, PageSize)
	if _, err := p.file.ReadAt(data, no*PageSize); err != nil {
		return nil, err
	}
	p.loads++
	p.pool.Put(no, data, 1)
	return data, nil
}

// NumPages reports the number of allocated pages.
func (p *Pager) NumPages() int64 {
	if p.builder {
		return int64(len(p.mem))
	}
	return p.nPages
}

// Loads reports buffer-pool misses (read-only mode).
func (p *Pager) Loads() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loads
}

// ResetLoads zeroes the miss counter without disturbing the pool.
func (p *Pager) ResetLoads() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.loads = 0
}

// ResetPool empties the buffer pool and resizes it to maxFrames pages.
func (p *Pager) ResetPool(maxFrames int) {
	if p.builder {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pool.Reset(int64(maxFrames))
	p.loads = 0
}

// Close flushes (build mode) and releases the file.
func (p *Pager) Close() error {
	if p.builder {
		f, err := os.Create(p.path)
		if err != nil {
			return err
		}
		for _, pg := range p.mem {
			if _, err := f.Write(pg); err != nil {
				f.Close()
				return err
			}
		}
		p.mem = nil
		return f.Close()
	}
	if p.file != nil {
		return p.file.Close()
	}
	return nil
}

// OpenReadOnly opens an existing page file through the accountant with
// a buffer pool of maxFrames pages.
func OpenReadOnly(path string, acc *iosim.Accountant, maxFrames int) (*Pager, error) {
	f, err := acc.Open(path)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s size %d not page-aligned", path, size)
	}
	return &Pager{
		file:   f,
		nPages: size / PageSize,
		pool:   iosim.NewLRU[[]byte](int64(maxFrames)),
	}, nil
}
