package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"snode/internal/iosim"
	"snode/internal/snode"
	"snode/internal/store"
	"snode/internal/synth"
	"snode/internal/webgraph"
)

// params is everything a run is made from. The program under test
// receives only what is generated from it. Only seed, window and
// buildPages can be set from the command line: the rest decides what
// setup_s, ops_per_s and the corpus mean, and two result files made
// with different values would not be comparable.
type params struct {
	seed       uint64        // draws every request stream, schedule and mutation batch
	window     time.Duration // measured window of one workload
	warmup     time.Duration // untimed closed-loop warm-up before the window
	pages      int           // corpus of the four serving workloads
	buildPages int           // corpus of build_scale
	clients    int           // requests a closed loop keeps in flight (see inFlight)
	setups     int           // set-ups per untraced run; setup_s is their median
	trace      bool
	workDir    string // scratch space, removed when the run ends
	outDir     string // result and trace files
}

const (
	// defaultSeed is the paper's conference date. It is also the seed
	// of the synthetic crawl, on every run: the crawl is the benchmark's
	// dataset and -seed draws only the traffic, because what a query
	// costs depends on the crawl it runs on (across ten crawls, routed
	// Q1-Q6 ran at 59 to 299 requests a second), so a metric measured on
	// a crawl per seed would compare crawls, not commits.
	defaultSeed = 20030226
	// Scale of the corpus, chosen in ISSUE 13: the query workloads stay
	// at 100k pages because one Q3 takes seconds at 300k. build_scale
	// runs at 250k: a run has ~20 s in all, and one 1M-page build alone
	// costs 10 s of generation, 3 s of export and 12 s of building on
	// the 2-core host this was sized on. -build-pages 1000000 runs
	// ISSUE 13's 1M point.
	defaultPages      = 100_000
	defaultBuildPages = 250_000
	// ingestHeapMBPerMPages keeps ISSUE 13's "MaxHeapMB: 32 at 1M
	// pages" at every scale, so ingest spills to ~8 sorted runs.
	ingestHeapMBPerMPages = 32
)

// defaultParams is the benchmark at full scale.
func defaultParams() params {
	return params{
		seed:       defaultSeed,
		window:     contractRunSeconds * time.Second,
		warmup:     time.Second,
		pages:      defaultPages,
		buildPages: defaultBuildPages,
		clients:    min(2, runtime.NumCPU()),
		setups:     3,
	}
}

// smokeParams checks the benchmark and measures nothing: -smoke and
// the tests run every workload with it in a few seconds.
func smokeParams() params {
	p := defaultParams()
	p.pages, p.buildPages, p.window, p.warmup, p.setups = 4000, 8000, time.Second, 200*time.Millisecond, 1
	return p
}

// diskModel is the 2002 disk every store is opened under. Pacing stays
// off: wall-clock numbers measure the program, and the modeled disk
// time is reported as its own figure.
func diskModel() iosim.Model { return iosim.Model2002() }

// genCrawl makes the synthetic crawl, the same on every run.
func genCrawl(pages int) (*synth.Crawl, error) {
	cfg := synth.DefaultConfig(pages)
	cfg.Seed = defaultSeed
	return synth.Generate(cfg)
}

// csrHash fingerprints a graph's CSR rows, so two result files can
// prove they measured the same input.
func csrHash(g *webgraph.Graph) string {
	h := sha256.New()
	var buf []byte
	for p := 0; p < g.NumPages(); p++ {
		row := g.Out(webgraph.PageID(p))
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(row)))
		for _, q := range row {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(q))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counter indices of a counterSet.
const (
	cSeeks = iota
	cReads
	cBytesRead
	cSkippedBytes
	cGraphsLoaded
	cCacheHits
	cCacheMisses
	cCacheLoads
	cCoalesced
	cEvictions
	cDecodedEdges
	numCounters
)

type counterSet [numCounters]int64

// counterSource names the stores whose counters a window reads: tops
// are the stores the engines call (their Stats() carry the I/O of
// everything below them, delta segments included), reps the S-Node
// representations whose buffer-manager counters are reachable.
type counterSource struct {
	tops []store.LinkStore
	reps []*snode.Representation
}

func (cs counterSource) read() counterSet {
	var c counterSet
	for _, s := range cs.tops {
		st := s.Stats()
		c[cSeeks] += st.IO.Seeks
		c[cReads] += st.IO.Reads
		c[cBytesRead] += st.IO.BytesRead
		c[cSkippedBytes] += st.IO.SkippedBytes
		c[cGraphsLoaded] += st.GraphsLoaded
	}
	for _, r := range cs.reps {
		ext := r.StatsExt()
		c[cCacheHits] += ext.Cache.Hits
		c[cCacheMisses] += ext.Cache.Misses
		c[cCacheLoads] += ext.Cache.Loads
		c[cCoalesced] += ext.Cache.Coalesced
		c[cEvictions] += ext.Cache.Evictions
		c[cDecodedEdges] += r.DecodedEdges()
	}
	return c
}

// modeledIO is the 2002-disk time of a window's reads.
func (c counterSet) modeledIO() time.Duration {
	return iosim.Stats{Seeks: c[cSeeks], Reads: c[cReads], BytesRead: c[cBytesRead],
		SkippedBytes: c[cSkippedBytes]}.ModeledTime(diskModel())
}

// monitor samples, every monitorTick over a window, the heap in use
// (keeping the peak) and the stores' counters (keeping the sum of
// their increases). Increases, not last-minus-first: a delta fold-back
// swaps in a freshly built base store whose counters start again from
// zero, which a plain difference would read as negative work.
type monitor struct {
	src      counterSource
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	last     counterSet
	total    counterSet
	peakHeap uint64
	cpu0     time.Duration
}

// windowUse is what a monitor saw over its window.
type windowUse struct {
	ctrs       counterSet    // increases of the stores' counters
	peakHeapMB float64       // largest HeapInuse sampled
	cpu        time.Duration // CPU time the process used
}

const monitorTick = 20 * time.Millisecond

func startMonitor(src counterSource) *monitor {
	m := &monitor{src: src, stop: make(chan struct{}), done: make(chan struct{})}
	m.last = src.read()
	m.sampleHeap()
	m.cpu0 = processCPU()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(monitorTick)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

// startWindow is startMonitor for a measured window: it collects the
// garbage of set-up and warm-up first, so that every window starts from
// the same heap and its first collection comes at the same point.
func startWindow(src counterSource) *monitor {
	runtime.GC()
	return startMonitor(src)
}

func (m *monitor) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > m.peakHeap {
		m.peakHeap = ms.HeapInuse
	}
}

func (m *monitor) sample() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampleHeap()
	cur := m.src.read()
	for i := range cur {
		if d := cur[i] - m.last[i]; d >= 0 {
			m.total[i] += d
		} else {
			m.total[i] += cur[i] // the store was replaced; it counts from zero
		}
	}
	m.last = cur
}

// finish stops sampling and returns what the window used.
func (m *monitor) finish() windowUse {
	cpu := processCPU() - m.cpu0
	close(m.stop)
	<-m.done
	m.sample()
	return windowUse{ctrs: m.total, peakHeapMB: float64(m.peakHeap) / (1 << 20), cpu: cpu}
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	go l.srv.Serve(ln) // returns when close() closes the server
	return l, nil
}

func (l *listener) close() { l.srv.Close() }

// environment is recorded in every result file.
type environment struct {
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return environment{
		GitCommit:  gitCommit("."),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// gitCommit reads HEAD from the .git directory without running git (a
// driver's checkout is not a repository; that reads "unknown").
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, found := strings.CutSuffix(line, " "+name); found {
				return hash
			}
		}
	}
	return "unknown"
}
