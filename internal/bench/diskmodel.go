package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"snode/internal/iosim"
	"snode/internal/query"
	"snode/internal/repo"
)

// DiskModelRow is one storage generation in the disk-model sweep.
type DiskModelRow struct {
	Name         string
	Model        iosim.Model
	SNode, Files time.Duration // Query 1's modeled navigation I/O time
	Speedup      float64       // files / snode
}

// DiskModelSweep re-runs Query 1's navigation (Stanford
// mobile-networking pages → .edu targets; internal/query's plan over a
// repository built per model, since a store charges its reads under the
// model it was opened with) under storage models from the paper's 2002
// disk to modern flash — an analysis the paper could not run in 2003.
// It isolates WHERE the S-Node query win comes from:
// on seek-bound disks it is a seek-count win; on transfer-bound flash
// it persists (and can grow) as a bytes-transferred win, because the
// filtered two-level layout reads a small fraction of the data a flat
// store must.
func DiskModelSweep(cfg Config) ([]DiskModelRow, error) {
	n := cfg.Sizes[0]
	if len(cfg.Sizes) > 1 {
		n = cfg.Sizes[1]
	}
	crawl, err := cfg.Crawl(n)
	if err != nil {
		return nil, err
	}
	ws, cleanup, err := cfg.workspace()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	models := []struct {
		name string
		m    iosim.Model
	}{
		{"2002 disk (9ms seek, 25MB/s)", iosim.Model2002()},
		{"2010 disk (4ms seek, 120MB/s)", iosim.Model{Seek: 4 * time.Millisecond, BytesPerSecond: 120e6, SkipFree: 512 << 10}},
		{"SATA SSD (80us seek, 500MB/s)", iosim.Model{Seek: 80 * time.Microsecond, BytesPerSecond: 500e6, SkipFree: 1 << 20}},
		{"NVMe (10us seek, 3GB/s)", iosim.Model{Seek: 10 * time.Microsecond, BytesPerSecond: 3e9, SkipFree: 1 << 20}},
	}
	var rows []DiskModelRow
	for i, mc := range models {
		// Query 1 reads WG only.
		opt := repo.DefaultOptions(filepath.Join(ws, fmt.Sprintf("dm-%d", i)))
		opt.Schemes = []string{repo.SchemeSNode, repo.SchemeFiles}
		opt.Transpose = false
		opt.CacheBudget = cfg.QueryBudget
		opt.Model = mc.m
		opt.Layout = crawl.Order
		r, err := repo.Build(crawl.Corpus, opt)
		if err != nil {
			return nil, err
		}
		nav := map[string]time.Duration{}
		for _, scheme := range opt.Schemes {
			res, err := runQueryCold(cfg, r, scheme, query.Q1, cfg.QueryBudget)
			if err != nil {
				r.Close()
				return nil, err
			}
			nav[scheme] = res.Nav.IO
		}
		r.Close()
		os.RemoveAll(opt.Dir)
		row := DiskModelRow{Name: mc.name, Model: mc.m, SNode: nav[repo.SchemeSNode], Files: nav[repo.SchemeFiles]}
		if row.SNode > 0 {
			row.Speedup = float64(row.Files) / float64(row.SNode)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDiskModelSweep prints the sweep.
func RenderDiskModelSweep(cfg Config, rows []DiskModelRow) {
	w := cfg.out()
	fmt.Fprintln(w, "Disk-model sweep: Query-1 navigation, S-Node vs uncompressed files")
	fmt.Fprintf(w, "%-32s %14s %14s %10s\n", "storage", "snode", "files", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %14v %14v %9.1fx\n",
			r.Name, r.SNode.Round(time.Microsecond), r.Files.Round(time.Microsecond), r.Speedup)
	}
	fmt.Fprintln(w, "(seek-bound storage: a seek-count win; transfer-bound storage: a bytes win)")
	fmt.Fprintln(w)
}
