// Package synth generates synthetic Web crawls that stand in for the
// Stanford WebBase repository used in the paper's experiments. The
// generator implements the link-copying random Web-graph model of
// Kumar et al. (FOCS 2000) extended with the structure the S-Node
// scheme exploits (paper §3, Observations 1-3):
//
//   - Link copying: a fraction of pages choose a "prototype" page from
//     the same directory and copy part of its adjacency list, creating
//     clusters of pages with near-identical out-links.
//   - Domain and URL locality: ~75% of links stay within the source
//     page's registered domain (Suel & Yuan), and intra-domain links are
//     biased towards lexicographically nearby URLs.
//   - Page similarity: pages in the same directory share a topic and,
//     through copying, similar adjacency lists.
//
// The generator also seeds the paper's Table 3 query scenarios: the
// university domains (stanford.edu, berkeley.edu, mit.edu, caltech.edu),
// the comic-strip domains, and the five scenario phrases, wired with the
// link structure each query needs to return non-trivial results.
package synth

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"snode/internal/randutil"
	"snode/internal/webgraph"
)

// Scenario constants shared with the query engine.
const (
	PhraseMobileNetworking      = "mobile_networking"
	PhraseInternetCensorship    = "internet_censorship"
	PhraseQuantumCryptography   = "quantum_cryptography"
	PhraseComputerMusic         = "computer_music_synthesis"
	PhraseOpticalInterferometry = "optical_interferometry"
)

// ComicStrip describes one comic for Analysis 2 (Query 2): its website
// domain and its word set Cw.
type ComicStrip struct {
	Name  string
	Site  string
	Words []string
}

// Comics returns the three strips from the paper.
func Comics() []ComicStrip {
	return []ComicStrip{
		{Name: "Dilbert", Site: "dilbert.com", Words: []string{"dilbert", "dogbert", "the_boss"}},
		{Name: "Doonesbury", Site: "doonesbury.com", Words: []string{"doonesbury", "zonker", "duke"}},
		{Name: "Peanuts", Site: "peanuts.com", Words: []string{"peanuts", "snoopy", "charlie_brown"}},
	}
}

// Universities returns the four university domains used by Query 4.
func Universities() []string {
	return []string{"stanford.edu", "berkeley.edu", "mit.edu", "caltech.edu"}
}

var scenarioPhrases = []string{
	PhraseMobileNetworking,
	PhraseInternetCensorship,
	PhraseQuantumCryptography,
	PhraseComputerMusic,
	PhraseOpticalInterferometry,
}

// Config controls crawl generation. DefaultConfig provides values tuned
// to match the paper's measured corpus statistics at small scale.
type Config struct {
	NumPages int
	Seed     uint64

	// MeanOutDegree targets the paper's measured average of 14.
	MeanOutDegree float64
	// IntraDomainProb is the fraction of links that stay on the source
	// domain (paper cites ~3/4).
	IntraDomainProb float64
	// URLLocalityProb is, among intra-domain links, the fraction biased
	// to lexicographically nearby URLs.
	URLLocalityProb float64
	// CopyProb is the probability a page copies a prototype's links.
	CopyProb float64
	// CopyFraction is the fraction of the prototype list copied.
	CopyFraction float64
	// PagesPerDomain controls how many domains the crawl has.
	PagesPerDomain int
}

// DefaultConfig returns the standard configuration for n pages.
func DefaultConfig(n int) Config {
	return Config{
		NumPages:        n,
		Seed:            20030226, // ICDE 2003 conference date
		MeanOutDegree:   14,
		IntraDomainProb: 0.75,
		URLLocalityProb: 0.8,
		CopyProb:        0.5,
		CopyFraction:    0.75,
		PagesPerDomain:  1200,
	}
}

type domainSpec struct {
	name     string
	tld      string
	size     int
	firstPID int32 // first page ID (pages of a domain are contiguous)
}

// Crawl is a generated corpus plus the order in which a breadth-first
// crawler would have fetched its pages. Page IDs are assigned in
// (domain, URL) lexicographic order — the ordering the representation
// schemes rely on — while Order records crawl sequence, which Prefix
// uses to derive smaller data sets the way the paper does (§4: "reading
// the repository sequentially from the beginning").
type Crawl struct {
	Corpus *webgraph.Corpus
	Order  []int32 // Order[k] = page fetched k-th
}

// Generate produces a crawl under the given configuration.
func Generate(cfg Config) (*Crawl, error) {
	if cfg.NumPages < 100 {
		return nil, fmt.Errorf("synth: NumPages %d too small (min 100)", cfg.NumPages)
	}
	if cfg.MeanOutDegree <= 1 {
		return nil, fmt.Errorf("synth: MeanOutDegree must exceed 1")
	}
	root := randutil.NewRNG(cfg.Seed)
	domRNG := root.Split(1)
	urlRNG := root.Split(2)
	topicRNG := root.Split(3)
	linkRNG := root.Split(4)
	scenRNG := root.Split(5)

	domains := planDomains(cfg, domRNG)
	pages, dirOf, dirPages := buildURLs(cfg, domains, urlRNG)
	assignTerms(cfg, domains, pages, dirOf, topicRNG)
	g := buildLinks(cfg, domains, pages, dirOf, dirPages, linkRNG)
	wireScenarios(cfg, domains, pages, g, scenRNG)

	corpus := &webgraph.Corpus{Graph: g.Build(), Pages: pages}
	if err := corpus.Validate(); err != nil {
		return nil, err
	}
	order := crawlOrder(domains, root.Split(6))
	return &Crawl{Corpus: corpus, Order: order}, nil
}

// crawlOrder simulates breadth-first crawl dynamics: large hub domains
// are discovered early and keep contributing pages throughout the
// crawl, while small domains trickle in sub-linearly (Najork & Wiener).
// Each domain d discovered at time t_d spreads its pages over
// [t_d, N); domain discovery times follow t_i ∝ (i/D)^1.6 with domains
// taken in descending size order (the seven scenario domains first, so
// every prefix of interest contains them).
func crawlOrder(domains []domainSpec, rng *randutil.RNG) []int32 {
	var total int
	for _, d := range domains {
		total += d.size
	}
	// Discovery order: scenario domains first (so every prefix of
	// interest contains them), then a size-biased random order — BFS
	// crawls reach popular sites a little earlier, but small sites are
	// discovered throughout. Strict big-first ordering would make
	// front-loaded discovery infeasible (the biggest domains alone
	// would fill the early crawl).
	isSpecial := func(name string) bool {
		switch name {
		case "stanford.edu", "berkeley.edu", "mit.edu", "caltech.edu",
			"dilbert.com", "doonesbury.com", "peanuts.com":
			return true
		}
		return false
	}
	var specials []int
	var rest []int
	for i := range domains {
		if isSpecial(domains[i].name) {
			specials = append(specials, i)
		} else {
			rest = append(rest, i)
		}
	}
	sort.Slice(specials, func(a, b int) bool { return domains[specials[a]].name < domains[specials[b]].name })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	// Interleave the scenario domains among the first ~15% of discovery
	// ranks: early enough that every experimental prefix contains them,
	// spread out so their (large) mass does not over-commit the early
	// crawl.
	idx := make([]int, 0, len(domains))
	stride := len(domains) / 50
	if stride < 1 {
		stride = 1
	}
	si, ri := 0, 0
	for len(idx) < len(domains) {
		if si < len(specials) && len(idx)%stride == 0 && len(idx) > 0 {
			idx = append(idx, specials[si])
			si++
			continue
		}
		if ri < len(rest) {
			idx = append(idx, rest[ri])
			ri++
			continue
		}
		idx = append(idx, specials[si])
		si++
	}
	// Crawl assembly: domain rank i (discovery order) is discovered at
	// ideal time total*(i/D)^2 — front-loaded, so any prefix already
	// knows most of the structure it will ever see. A polite BFS
	// crawler keeps hundreds of hosts in flight and round-robins among
	// them, so each domain's pages are (a) scattered across a long
	// stretch of the crawl, interleaved with many other domains — which
	// is why a flat crawl-order store seeks once per page of a focused
	// query set — and (b) drawn in breadth-first order, touching every
	// top-level directory early, which is why the partition's URL-split
	// structure (and hence the supernode count) saturates long before a
	// domain is fully crawled.
	d := float64(len(domains))
	type keyed struct {
		pid int32
		key float64
	}
	keys := make([]keyed, 0, total)
	for rank, di := range idx {
		dom := domains[di]
		t := float64(total) * discoverySchedule(float64(rank)/d)
		w := 4 * float64(dom.size)
		if min := float64(total) / 3; w < min {
			w = min
		}
		if w > float64(total)-t {
			w = float64(total) - t
		}
		// Uniform keys over the window: pages arrive interleaved and in
		// effectively random directory order.
		for k := 0; k < dom.size; k++ {
			key := t + w*rng.Float64()
			keys = append(keys, keyed{pid: dom.firstPID + int32(k), key: key})
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].key != keys[b].key {
			return keys[a].key < keys[b].key
		}
		return keys[a].pid < keys[b].pid
	})
	order := make([]int32, total)
	for i, k := range keys {
		order[i] = k.pid
	}
	return order
}

// discoverySchedule maps domain fraction x in [0,1] to the crawl-time
// fraction at which that domain is discovered. The square law means a
// crawl prefix of fraction p has discovered sqrt(p) of all domains —
// the frontier explosion of breadth-first crawling.
func discoverySchedule(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * x
}

// planDomains decides the domain list and per-domain page counts. The
// first seven domains are the scenario domains; universities are large,
// comic sites small, and the remainder follow a Zipf size distribution.
func planDomains(cfg Config, rng *randutil.RNG) []domainSpec {
	n := cfg.NumPages
	nDomains := n / cfg.PagesPerDomain
	if nDomains < 16 {
		nDomains = 16
	}
	specials := []domainSpec{
		{name: "stanford.edu", tld: "edu"},
		{name: "berkeley.edu", tld: "edu"},
		{name: "mit.edu", tld: "edu"},
		{name: "caltech.edu", tld: "edu"},
		{name: "dilbert.com", tld: "com"},
		{name: "doonesbury.com", tld: "com"},
		{name: "peanuts.com", tld: "com"},
	}
	tlds := []string{"com", "com", "com", "org", "net", "edu"}
	var generic []domainSpec
	for i := len(specials); i < nDomains; i++ {
		tld := tlds[rng.Intn(len(tlds))]
		generic = append(generic, domainSpec{
			name: fmt.Sprintf("site%04d.%s", i, tld),
			tld:  tld,
		})
	}

	// Reserve fixed shares: universities ~4% each, comics tiny.
	comicSize := n / 400
	if comicSize < 8 {
		comicSize = 8
	}
	uniSize := n / 25
	if uniSize < 60 {
		uniSize = 60
	}
	reserved := 0
	for i := range specials {
		if specials[i].tld == "edu" {
			specials[i].size = uniSize
		} else {
			specials[i].size = comicSize
		}
		reserved += specials[i].size
	}
	rest := n - reserved
	if rest < len(generic) {
		rest = len(generic) // degenerate tiny corpora
	}
	// Zipf sizes for generic domains, with a heavy tail: real crawls
	// concentrate much of their mass in a few very large sites whose
	// directory structure saturates early in the crawl.
	if len(generic) > 0 {
		weights := make([]float64, len(generic))
		var total float64
		for i := range weights {
			weights[i] = math.Pow(float64(i+2), -1.25)
			total += weights[i]
		}
		assigned := 0
		for i := range generic {
			s := int(float64(rest) * weights[i] / total)
			if s < 2 {
				s = 2
			}
			generic[i].size = s
			assigned += s
		}
		// Fix rounding drift on the largest generic domain.
		generic[0].size += rest - assigned
		if generic[0].size < 2 {
			generic[0].size = 2
		}
	}
	all := append(specials, generic...)
	// Sort by domain name so page IDs follow (domain, URL) order.
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	pid := int32(0)
	for i := range all {
		all[i].firstPID = pid
		pid += int32(all[i].size)
	}
	return all
}

// buildURLs creates page metadata with a synthetic directory hierarchy
// per domain and returns, per page, its directory key, plus the page
// lists per directory (used for prototype selection during copying).
func buildURLs(cfg Config, domains []domainSpec, rng *randutil.RNG) (pages []webgraph.PageMeta, dirOf []int32, dirPages [][]int32) {
	total := 0
	for _, d := range domains {
		total += d.size
	}
	pages = make([]webgraph.PageMeta, total)
	dirOf = make([]int32, total)

	var dirKeys []string
	dirIndex := map[string]int32{}
	getDir := func(key string) int32 {
		if id, ok := dirIndex[key]; ok {
			return id
		}
		id := int32(len(dirKeys))
		dirKeys = append(dirKeys, key)
		dirIndex[key] = id
		dirPages = append(dirPages, nil)
		return id
	}

	for _, d := range domains {
		// Directory tree sized so that depth-bounded URL prefixes cover
		// substantial page groups, as on the real Web where a prefix
		// like /students/grad/ holds hundreds of pages: roughly one
		// level-1 directory per hundred pages, occasional level-2/3.
		nL1 := 1 + d.size/400
		if nL1 > 6 {
			nL1 = 6
		}
		type dirSlot struct{ path string }
		var slots []dirSlot
		slots = append(slots, dirSlot{path: ""}) // root
		for i := 0; i < nL1; i++ {
			p1 := fmt.Sprintf("d%02d", i)
			slots = append(slots, dirSlot{path: p1})
			if rng.Bool(0.3) {
				p2 := fmt.Sprintf("%s/s%02d", p1, rng.Intn(3))
				slots = append(slots, dirSlot{path: p2})
				if rng.Bool(0.2) {
					slots = append(slots, dirSlot{path: fmt.Sprintf("%s/t%02d", p2, rng.Intn(3))})
				}
			}
		}
		// Hosts: universities expose department subdomains to exercise
		// the "top two DNS levels" grouping; others use www.
		hosts := []string{"www." + d.name}
		if d.tld == "edu" && strings.Contains(d.name, ".edu") {
			hosts = append(hosts, "cs."+d.name, "ee."+d.name)
		}

		// Distribute pages over (host, dir) slots with a Zipfian skew
		// (organizational sites concentrate pages in a few areas), then
		// sort URLs within the domain so IDs follow lexicographic order.
		slotWeights := make([]float64, len(slots))
		for i := range slotWeights {
			slotWeights[i] = 1.0 / float64(i+1)
		}
		type pageSlot struct {
			url string
			dir int32
		}
		urls := make([]pageSlot, d.size)
		for k := 0; k < d.size; k++ {
			host := hosts[rng.Intn(len(hosts))]
			slot := slots[randutil.WeightedChoice(rng, slotWeights)]
			var u string
			if slot.path == "" {
				u = fmt.Sprintf("http://%s/page%05d.html", host, k)
			} else {
				u = fmt.Sprintf("http://%s/%s/page%05d.html", host, slot.path, k)
			}
			urls[k] = pageSlot{url: u, dir: getDir(host + "/" + slot.path)}
		}
		sort.Slice(urls, func(i, j int) bool { return urls[i].url < urls[j].url })
		for k, ps := range urls {
			pid := d.firstPID + int32(k)
			pages[pid] = webgraph.PageMeta{URL: ps.url, Domain: d.name}
			dirOf[pid] = ps.dir
			dirPages[ps.dir] = append(dirPages[ps.dir], pid)
		}
	}
	return pages, dirOf, dirPages
}

// assignTerms gives every page its term list: a directory topic phrase,
// background vocabulary, and scenario terms where the Table 3 queries
// need them.
func assignTerms(cfg Config, domains []domainSpec, pages []webgraph.PageMeta, dirOf []int32, rng *randutil.RNG) {
	nGeneric := 40
	genericTopics := make([]string, nGeneric)
	for i := range genericTopics {
		genericTopics[i] = fmt.Sprintf("topic_%02d", i)
	}
	comics := Comics()
	uniSet := map[string]bool{}
	for _, u := range Universities() {
		uniSet[u] = true
	}

	// Directory topic cache: every page in a directory shares a topic.
	// Universities deterministically cycle the five scenario phrases
	// over their first directories, guaranteeing each phrase a page
	// population at each university (the Table 3 queries depend on it);
	// elsewhere scenario phrases appear rarely, as on the wider Web.
	dirTopic := map[int32]string{}
	uniPhraseCursor := map[string]int{}
	topicFor := func(dir int32, domain string) string {
		if t, ok := dirTopic[dir]; ok {
			return t
		}
		var t string
		if uniSet[domain] && uniPhraseCursor[domain] < len(scenarioPhrases) {
			t = scenarioPhrases[uniPhraseCursor[domain]]
			uniPhraseCursor[domain]++
		} else if rng.Float64() < 0.02 {
			t = scenarioPhrases[rng.Intn(len(scenarioPhrases))]
		} else {
			t = genericTopics[rng.Intn(nGeneric)]
		}
		dirTopic[dir] = t
		return t
	}

	vocabSize := 2000
	var terms []string // one page's, joined into its Terms
	for _, d := range domains {
		isComic := -1
		for ci, c := range comics {
			if c.Site == d.name {
				isComic = ci
			}
		}
		for k := 0; k < d.size; k++ {
			pid := d.firstPID + int32(k)
			terms = terms[:0]
			topic := topicFor(dirOf[pid], d.name)
			// ~70% of a directory's pages actually mention its topic.
			if rng.Bool(0.7) {
				terms = append(terms, topic)
			}
			if isComic >= 0 {
				terms = append(terms, comics[isComic].Words...)
			} else if uniSet[d.name] && rng.Bool(0.02) {
				// A few university pages discuss a comic strip: pick one
				// and mention at least two of its words (Q2's predicate).
				c := comics[rng.Intn(len(comics))]
				nw := 2 + rng.Intn(len(c.Words)-1)
				perm := rng.Perm(len(c.Words))
				for _, wi := range perm[:nw] {
					terms = append(terms, c.Words[wi])
				}
			}
			nBack := 3 + rng.Intn(6)
			for j := 0; j < nBack; j++ {
				terms = append(terms, fmt.Sprintf("w%04d", rng.Intn(vocabSize)))
			}
			pages[pid].Terms = webgraph.JoinTerms(terms)
		}
	}
}

// buildLinks generates the hyperlink structure.
func buildLinks(cfg Config, domains []domainSpec, pages []webgraph.PageMeta, dirOf []int32, dirPages [][]int32, rng *randutil.RNG) *webgraph.Builder {
	n := len(pages)
	b := webgraph.NewBuilder(n)

	// Degree sampler targeting the configured mean: bounded Pareto with
	// alpha=2.5 has mean lo*(alpha-1)/(alpha-2) = 3*lo.
	alpha := 2.5
	lo := int(cfg.MeanOutDegree*(alpha-2)/(alpha-1) + 0.5)
	if lo < 1 {
		lo = 1
	}
	hi := 300
	deg := randutil.NewBoundedPareto(rng, lo, hi, alpha)

	// Preferential-attachment pool: every generated edge target joins
	// the pool, so sampling uniformly from it is degree-proportional.
	// Preferential-attachment pool with a "hot core": most external
	// links on the Web target a small set of very popular pages, so a
	// majority of preferential draws sample only the early portion of
	// the pool. This concentration is what keeps the number of distinct
	// supernode pairs (superedges) growing slowly.
	prefPool := make([]int32, 0, n*8)
	hotCore := n / 20
	samplePref := func() int32 {
		if len(prefPool) == 0 || rng.Bool(0.05) {
			return int32(rng.Intn(n))
		}
		if len(prefPool) > hotCore && rng.Bool(0.85) {
			return prefPool[rng.Intn(hotCore)]
		}
		return prefPool[rng.Intn(len(prefPool))]
	}

	// Per-domain index for intra-domain sampling.
	domainOf := make([]int, n)
	for di, d := range domains {
		for k := 0; k < d.size; k++ {
			domainOf[d.firstPID+int32(k)] = di
		}
	}
	// Track generated adjacency (pre-dedup) for prototype copying.
	adjSoFar := make([][]int32, n)

	// Per-domain directory lists, for domain-wide template copying.
	domDirs := make([][]int32, len(domains))
	{
		seen := map[int32]bool{}
		for p := 0; p < n; p++ {
			d := dirOf[p]
			if !seen[d] {
				seen[d] = true
				di := domainOf[p]
				domDirs[di] = append(domDirs[di], d)
			}
		}
	}

	addEdge := func(p, q int32) {
		if p == q {
			return
		}
		b.AddEdge(p, q)
		adjSoFar[p] = append(adjSoFar[p], q)
		prefPool = append(prefPool, q)
	}

	// Generate in page-ID order (== crawl order).
	for p := 0; p < n; p++ {
		pid := int32(p)
		d := domains[domainOf[p]]
		want := deg.Sample()

		// Link copying: pick a prototype from the same directory among
		// already-generated pages and copy a fraction of its list. The
		// prototype is one of the directory's first few pages (its
		// "archetypes"): a directory hosts a small number of page
		// templates, so its pages form a few clusters of near-identical
		// adjacency lists — exactly the structure clustered split
		// discovers and reference encoding exploits.
		if rng.Bool(cfg.CopyProb) {
			// 40% of copying follows a domain-wide template (site
			// navigation and boilerplate shared across directories) —
			// these similar pages are NOT URL-adjacent, which is
			// precisely the structure clustered split recovers and a
			// URL-window scheme like Link3 cannot.
			srcDir := dirOf[pid]
			if rng.Bool(0.5) {
				dirs := domDirs[domainOf[pid]]
				if len(dirs) > 0 {
					srcDir = dirs[rng.Intn(len(dirs))]
				}
			}
			peers := dirPages[srcDir]
			nArch := 0
			for _, q := range peers {
				if q < pid && nArch < 3 {
					nArch++
				}
			}
			if nArch > 0 {
				proto := peers[rng.Intn(nArch)]
				if proto < pid {
					src := adjSoFar[proto]
					for _, t := range src {
						if rng.Bool(cfg.CopyFraction) {
							addEdge(pid, t)
							want--
						}
					}
				}
			}
		}

		for ; want > 0; want-- {
			if rng.Bool(cfg.IntraDomainProb) && d.size > 1 {
				// Intra-domain link.
				var q int32
				if rng.Bool(cfg.URLLocalityProb) {
					// Lexicographic locality: geometric offset from p
					// within the domain's contiguous ID range.
					off := 1
					for rng.Bool(0.6) && off < d.size {
						off++
					}
					if rng.Bool(0.5) {
						off = -off
					}
					q = pid + int32(off)
					if q < d.firstPID || q >= d.firstPID+int32(d.size) {
						q = d.firstPID + int32(rng.Intn(d.size))
					}
				} else {
					q = d.firstPID + int32(rng.Intn(d.size))
				}
				addEdge(pid, q)
			} else {
				addEdge(pid, samplePref())
			}
		}
	}
	return b
}

// wireScenarios adds the deterministic link structure each Table 3 query
// relies on. Everything here uses its own RNG stream so the base graph
// is unaffected by scenario tweaks.
func wireScenarios(cfg Config, domains []domainSpec, pages []webgraph.PageMeta, b *webgraph.Builder, rng *randutil.RNG) {
	n := len(pages)
	hasTerm := func(p int32, term string) bool { return webgraph.HasTerm(pages[p].Terms, term) }
	domainRange := map[string][2]int32{}
	for _, d := range domains {
		domainRange[d.name] = [2]int32{d.firstPID, d.firstPID + int32(d.size)}
	}
	randIn := func(dom string) int32 {
		r := domainRange[dom]
		return r[0] + int32(rng.Intn(int(r[1]-r[0])))
	}
	var eduDomains []string
	for _, d := range domains {
		if d.tld == "edu" {
			eduDomains = append(eduDomains, d.name)
		}
	}

	comics := Comics()
	for p := int32(0); p < int32(n); p++ {
		dom := pages[p].Domain
		// Q1: stanford mobile-networking pages cite other .edu domains.
		if dom == "stanford.edu" && hasTerm(p, PhraseMobileNetworking) {
			k := 1 + rng.Intn(4)
			for j := 0; j < k; j++ {
				other := eduDomains[rng.Intn(len(eduDomains))]
				if other != "stanford.edu" {
					b.AddEdge(p, randIn(other))
				}
			}
		}
		// Q2: university pages that mention ≥2 comic words link to the
		// comic's site most of the time.
		if dom == "stanford.edu" {
			for _, c := range comics {
				cnt := 0
				for _, w := range c.Words {
					if hasTerm(p, w) {
						cnt++
					}
				}
				if cnt >= 2 && rng.Bool(0.7) {
					b.AddEdge(p, randIn(c.Site))
				}
			}
		}
		// Q4: quantum-cryptography pages at universities attract
		// external in-links (popularity signal).
		if hasTerm(p, PhraseQuantumCryptography) {
			for _, u := range Universities() {
				if dom == u {
					k := rng.Intn(12)
					for j := 0; j < k; j++ {
						src := int32(rng.Intn(n))
						if pages[src].Domain != dom {
							b.AddEdge(src, p)
						}
					}
				}
			}
		}
		// Q5: computer-music pages cite each other (intra-topic links).
		if hasTerm(p, PhraseComputerMusic) && rng.Bool(0.5) {
			// Link to another page with the phrase found by scanning a
			// window (cheap and deterministic).
			for probe := 0; probe < 50; probe++ {
				q := int32(rng.Intn(n))
				if q != p && hasTerm(q, PhraseComputerMusic) {
					b.AddEdge(p, q)
					break
				}
			}
		}
		// Q6: optical-interferometry pages at stanford AND berkeley
		// point into a shared pool of external pages.
		if hasTerm(p, PhraseOpticalInterferometry) &&
			(dom == "stanford.edu" || dom == "berkeley.edu") {
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				// Deterministic shared pool: pages of mit.edu act as the
				// common targets both universities cite.
				b.AddEdge(p, randIn("mit.edu"))
			}
		}
	}
}

// Prefix returns a crawl over the first n pages in crawl order, with
// edges to and from dropped pages removed — the paper's methodology for
// deriving smaller data sets from one crawl (§4, citing Najork &
// Wiener). Retained pages are renumbered in (domain, URL) order (i.e.
// ascending original ID); the result's Order holds the corresponding
// crawl sequence over the new IDs, which is also the physical layout
// order a repository stores pages in.
func (c *Crawl) Prefix(n int) *Crawl {
	full := c.Corpus
	if n >= full.Graph.NumPages() {
		return c
	}
	keep := make([]int32, 0, n)
	for _, pid := range c.Order[:n] {
		keep = append(keep, pid)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	newID := make(map[int32]int32, n)
	for i, pid := range keep {
		newID[pid] = int32(i)
	}
	b := webgraph.NewBuilder(n)
	pages := make([]webgraph.PageMeta, n)
	for i, pid := range keep {
		pages[i] = full.Pages[pid]
		for _, q := range full.Graph.Out(pid) {
			if nq, ok := newID[q]; ok {
				b.AddEdge(int32(i), nq)
			}
		}
	}
	order := make([]int32, 0, n)
	for _, pid := range c.Order[:n] {
		order = append(order, newID[pid])
	}
	return &Crawl{
		Corpus: &webgraph.Corpus{Graph: b.Build(), Pages: pages},
		Order:  order,
	}
}
