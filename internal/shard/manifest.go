package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"snode/internal/coding"
	"snode/internal/webgraph"
)

// ManifestFormatVersion guards the dataset's layout: the manifest's and
// the root meta.bin's, which has no header of its own. Readers reject
// other versions, before any artifact is parsed, instead of misparsing.
const ManifestFormatVersion = 2

// ManifestName is the manifest's file name under the shard root.
const ManifestName = "manifest.json"

// Root-level artifact names.
const (
	metaName     = "meta.bin"     // page metadata: URL, domain, terms (corpusio)
	pageRankName = "pagerank.bin" // global normalized PageRank
)

// ErrCorrupt marks a dataset artifact (manifest, PageRank vector,
// boundary file) whose bytes are not what a build writes. Open paths
// return it wrapped; nothing is served from such a file.
var ErrCorrupt = errors.New("shard: corrupt artifact")

// ShardEntry describes one shard's artifacts, relative to the root.
type ShardEntry struct {
	// Dir holds the shard's S-Node stores: Dir/snode.fwd and
	// Dir/snode.rev, each an ordinary snode.Open directory over the
	// intra-shard subgraph under global page IDs.
	Dir string `json:"dir"`
	// Pages is the number of pages this shard owns.
	Pages int `json:"pages"`
	// IntraEdges counts edges with both endpoints owned.
	IntraEdges int64 `json:"intra_edges"`
	// BoundaryFwd / BoundaryRev are the cross-shard edge files (owned
	// source → remote target, owned target ← remote source) and their
	// edge counts.
	BoundaryFwd      string `json:"boundary_fwd"`
	BoundaryRev      string `json:"boundary_rev"`
	BoundaryFwdEdges int64  `json:"boundary_fwd_edges"`
	BoundaryRevEdges int64  `json:"boundary_rev_edges"`
}

// Manifest is the versioned description of one partitioned corpus: the
// page→shard assignment and where every artifact lives. Routers and
// shard servers both load it; the Version field is how they detect
// build/serve skew (a replica built under a different partition).
type Manifest struct {
	FormatVersion int `json:"format_version"`
	// Version is a content hash of the assignment and per-shard edge
	// counts — two manifests with equal Version describe interchangeable
	// artifact sets.
	Version   string       `json:"version"`
	NumPages  int          `json:"num_pages"`
	NumShards int          `json:"num_shards"`
	Runs      []Run        `json:"runs"`
	Shards    []ShardEntry `json:"shards"`
	Meta      string       `json:"meta"`
	PageRank  string       `json:"pagerank"`
}

// ShardOf resolves the shard owning page p (-1 if p is out of range).
func (m *Manifest) ShardOf(p webgraph.PageID) int {
	if p < 0 || int(p) >= m.NumPages {
		return -1
	}
	i := sort.Search(len(m.Runs), func(i int) bool { return m.Runs[i].Start > p }) - 1
	if i < 0 {
		return -1
	}
	r := m.Runs[i]
	if p >= r.Start+webgraph.PageID(r.Count) {
		return -1
	}
	return r.Shard
}

// stamp computes the content-hash Version.
func (m *Manifest) stamp() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d n%d k%d;", m.FormatVersion, m.NumPages, m.NumShards)
	for _, r := range m.Runs {
		fmt.Fprintf(h, "r%d+%d=%d;", r.Start, r.Count, r.Shard)
	}
	for i, s := range m.Shards {
		fmt.Fprintf(h, "s%d:%d/%d/%d/%d;", i, s.Pages, s.IntraEdges, s.BoundaryFwdEdges, s.BoundaryRevEdges)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Save stamps the Version and writes the manifest under root.
func (m *Manifest) Save(root string) error {
	m.FormatVersion = ManifestFormatVersion
	m.Version = m.stamp()
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return coding.WriteFile(filepath.Join(root, ManifestName), func(w *coding.Writer) error {
		w.Write(append(buf, '\n'))
		return nil
	})
}

// LoadManifest reads and validates the manifest under root.
func LoadManifest(root string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(root, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("shard: bad manifest: %w", err)
	}
	if m.FormatVersion != ManifestFormatVersion {
		return nil, fmt.Errorf("shard: manifest format %d, not %d: rebuild the dataset", m.FormatVersion, ManifestFormatVersion)
	}
	if want := m.stamp(); m.Version != want {
		return nil, fmt.Errorf("shard: manifest version %q does not match contents (%q)", m.Version, want)
	}
	if m.NumShards != len(m.Shards) {
		return nil, fmt.Errorf("shard: manifest lists %d shards, declares %d", len(m.Shards), m.NumShards)
	}
	// Every other open-time bound (PageRank length, boundary counts and
	// IDs) is taken from NumPages, so it must itself fit a PageID.
	if m.NumPages < 1 || m.NumPages > math.MaxInt32 {
		return nil, fmt.Errorf("%w: manifest declares %d pages", ErrCorrupt, m.NumPages)
	}
	covered := 0
	for i, r := range m.Runs {
		if r.Shard < 0 || r.Shard >= m.NumShards {
			return nil, fmt.Errorf("shard: run %d assigned to shard %d of %d", i, r.Shard, m.NumShards)
		}
		if int(r.Start) != covered || r.Count < 1 {
			return nil, fmt.Errorf("shard: run %d covers [%d,+%d), want a non-empty run from %d (gap/overlap)", i, r.Start, r.Count, covered)
		}
		covered += int(r.Count)
	}
	if covered != m.NumPages {
		return nil, fmt.Errorf("shard: runs cover %d pages of %d", covered, m.NumPages)
	}
	// The artifact paths are joined onto the root and the version stamp
	// does not cover them: none may name a file outside the dataset.
	paths := []string{m.Meta, m.PageRank}
	for _, e := range m.Shards {
		paths = append(paths, e.Dir, e.BoundaryFwd, e.BoundaryRev)
	}
	for _, p := range paths {
		if !filepath.IsLocal(p) {
			return nil, fmt.Errorf("%w: manifest path %q leaves the dataset directory", ErrCorrupt, p)
		}
	}
	return &m, nil
}
