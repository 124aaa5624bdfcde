package urlutil

import (
	"strings"
	"testing"
)

func TestHost(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://www.stanford.edu/a/b.html", "www.stanford.edu"},
		{"https://CS.Stanford.EDU/", "cs.stanford.edu"},
		{"www.example.com/x", "www.example.com"},
		{"http://dilbert.com", "dilbert.com"},
	}
	for _, c := range cases {
		if got := Host(c.in); got != c.want {
			t.Errorf("Host(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://www.stanford.edu/a.html", "stanford.edu"},
		{"http://cs.stanford.edu/a.html", "stanford.edu"},
		{"http://ee.stanford.edu/", "stanford.edu"},
		{"http://dilbert.com/strip", "dilbert.com"},
		{"http://localhost/x", "localhost"},
		{"http://a.b.c.d.example.org/", "example.org"},
	}
	for _, c := range cases {
		if got := Domain(c.in); got != c.want {
			t.Errorf("Domain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDomainMergesSubdomains(t *testing.T) {
	// Footnote 5: cs.stanford.edu and ee.stanford.edu share a partition.
	if Domain("http://cs.stanford.edu/x") != Domain("http://ee.stanford.edu/y") {
		t.Fatal("cs. and ee.stanford.edu should share a domain")
	}
	if Domain("http://www.stanford.edu/") == Domain("http://www.berkeley.edu/") {
		t.Fatal("stanford and berkeley should differ")
	}
}

func TestPath(t *testing.T) {
	if got := Path("http://a.com/x/y.html"); got != "/x/y.html" {
		t.Errorf("Path = %q", got)
	}
	if got := Path("http://a.com"); got != "/" {
		t.Errorf("Path no slash = %q", got)
	}
}

func TestPrefixAtDepth(t *testing.T) {
	u := "http://www.stanford.edu/students/grad/page7.html"
	cases := []struct {
		depth int
		want  string
	}{
		{0, "www.stanford.edu"},
		{1, "www.stanford.edu/students"},
		{2, "www.stanford.edu/students/grad"},
		{3, "www.stanford.edu/students/grad"}, // clamped: only 2 dirs
		{5, "www.stanford.edu/students/grad"},
	}
	for _, c := range cases {
		if got := PrefixAtDepth(u, c.depth); got != c.want {
			t.Errorf("PrefixAtDepth(%d) = %q, want %q", c.depth, got, c.want)
		}
	}
}

func TestPrefixAtDepthRootPage(t *testing.T) {
	u := "http://www.stanford.edu/index.html"
	if got := PrefixAtDepth(u, 1); got != "www.stanford.edu" {
		t.Errorf("root page prefix = %q", got)
	}
	if got := PrefixAtDepth(u, 0); got != "www.stanford.edu" {
		t.Errorf("depth-0 prefix = %q", got)
	}
}

func TestPrefixAtDepthSplitsSiblings(t *testing.T) {
	// The §3.2 example: /admin/ and /students/ pages must separate at
	// depth 1 and /students/grad vs /students/undergrad at depth 2.
	admin := "http://www.stanford.edu/admin/p1.html"
	grad := "http://www.stanford.edu/students/grad/p2.html"
	under := "http://www.stanford.edu/students/undergrad/p3.html"
	if PrefixAtDepth(admin, 1) == PrefixAtDepth(grad, 1) {
		t.Fatal("depth-1 prefixes should differ for /admin vs /students")
	}
	if PrefixAtDepth(grad, 1) != PrefixAtDepth(under, 1) {
		t.Fatal("depth-1 prefixes should match within /students")
	}
	if PrefixAtDepth(grad, 2) == PrefixAtDepth(under, 2) {
		t.Fatal("depth-2 prefixes should split grad vs undergrad")
	}
}

func TestPathDepth(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"http://a.com/p.html", 0},
		{"http://a.com/d1/p.html", 1},
		{"http://a.com/d1/d2/d3/p.html", 3},
		{"http://a.com", 0},
	}
	for _, c := range cases {
		if got := PathDepth(c.in); got != c.want {
			t.Errorf("PathDepth(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStripScheme(t *testing.T) {
	if got := StripScheme("http://x.com/a"); got != "x.com/a" {
		t.Errorf("got %q", got)
	}
	if got := StripScheme("ftp://x.com/a"); got != "ftp://x.com/a" {
		t.Errorf("unknown scheme should pass through, got %q", got)
	}
}

// prefixBySplitting is PrefixAtDepth as it was first written — split the
// path, drop the file, join the directories back — kept as the oracle
// for the substring walk that replaced it.
func prefixBySplitting(u string, depth int) string {
	host := Host(u)
	segs := strings.Split(strings.TrimPrefix(Path(u), "/"), "/")
	if depth > len(segs)-1 {
		depth = len(segs) - 1
	}
	if depth <= 0 {
		return host
	}
	return host + "/" + strings.Join(segs[:depth], "/")
}

func TestPrefixAtDepthMatchesSplitting(t *testing.T) {
	urls := []string{
		"http://www.stanford.edu/students/grad/page7.html",
		"https://www.stanford.edu/students/grad/",
		"http://www.example-d00012.net/d3/page0014402.html",
		"http://WWW.Stanford.EDU/Students/Grad/p.html",
		"http://a.com",
		"http://a.com/",
		"http://a.com//",
		"http://a.com//x//y/p.html",
		"http://a.com/p.html",
		"a.com/d1/d2/d3/d4/d5/p.html",
		"ftp://x.com/a/b",
		"/rooted/path/p",
		"",
		"/",
		"http://",
		"http://a.com/d1/p.html?q=/x/y",
	}
	for _, u := range urls {
		for depth := -1; depth <= 7; depth++ {
			if got, want := PrefixAtDepth(u, depth), prefixBySplitting(u, depth); got != want {
				t.Errorf("PrefixAtDepth(%q, %d) = %q, splitting gives %q", u, depth, got, want)
			}
		}
		if got, want := PathDepth(u), len(strings.Split(strings.TrimPrefix(Path(u), "/"), "/"))-1; got != want {
			t.Errorf("PathDepth(%q) = %d, splitting gives %d", u, got, want)
		}
	}
}

// TestPrefixAtDepthAllocatesNothing: the partitioner asks for a prefix
// per page per depth; on a URL whose host is already lower-case (every
// URL the generator and the ingester produce) the answer is a substring.
func TestPrefixAtDepthAllocatesNothing(t *testing.T) {
	u := "http://www.example-d00012.net/d3/sub/page0014402.html"
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for depth := 0; depth <= 4; depth++ {
			sink += len(PrefixAtDepth(u, depth))
		}
		sink += PathDepth(u)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per call on a lower-case URL, want 0", allocs)
	}
}
