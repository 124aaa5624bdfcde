package urlutil

import "testing"

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
