// Package urlutil provides the URL manipulation the partitioner needs:
// registered-domain extraction (the paper's "top two levels of the DNS
// naming hierarchy", footnote 5), host extraction, and directory-prefix
// computation for the URL split technique (§3.2).
//
// URLs in this repository are always of the canonical synthetic form
// produced by the crawl generator:
//
//	http://host.domain.tld/dir1/dir2/page.html
//
// The functions here nevertheless parse defensively so they behave
// sensibly on arbitrary http(s) URLs.
package urlutil

import (
	"strings"
)

// StripScheme removes a leading http:// or https:// if present.
func StripScheme(u string) string {
	if rest, ok := strings.CutPrefix(u, "http://"); ok {
		return rest
	}
	if rest, ok := strings.CutPrefix(u, "https://"); ok {
		return rest
	}
	return u
}

// Host returns the full host part of the URL (everything before the
// first slash after the scheme), lower-cased.
func Host(u string) string {
	s := StripScheme(u)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}

// Domain returns the registered domain: the top two labels of the DNS
// name (e.g. cs.stanford.edu → stanford.edu), per the paper's initial
// partition P0. Hosts with fewer than two labels are returned as-is.
func Domain(u string) string {
	h := Host(u)
	labels := strings.Split(h, ".")
	if len(labels) <= 2 {
		return h
	}
	return labels[len(labels)-2] + "." + labels[len(labels)-1]
}

// Path returns the path component including the leading slash, or "/"
// when absent.
func Path(u string) string {
	s := StripScheme(u)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[i:]
	}
	return "/"
}

// PrefixAtDepth returns the URL prefix consisting of the host plus the
// first depth path directories, used by URL split to group pages.
// Depth 0 returns just the host. The page file name never counts as a
// directory. Examples for u = "http://www.s.edu/a/b/p.html":
//
//	depth 0 → "www.s.edu"
//	depth 1 → "www.s.edu/a"
//	depth 2 → "www.s.edu/a/b"
//	depth 3 → "www.s.edu/a/b"   (only two directories exist)
//
// The prefix of a URL whose host is already lower-case is a substring of
// it: the partitioner asks for one per page per depth, and allocates for
// none of them.
func PrefixAtDepth(u string, depth int) string {
	s := StripScheme(u)
	hostEnd := strings.IndexByte(s, '/')
	if hostEnd < 0 {
		return strings.ToLower(s)
	}
	// A directory is a path segment followed by '/': walk to the slash
	// that closes the depth-th one, or the last one there is.
	end := hostEnd
	for ; depth > 0; depth-- {
		i := strings.IndexByte(s[end+1:], '/')
		if i < 0 {
			break
		}
		end += 1 + i
	}
	if host := strings.ToLower(s[:hostEnd]); host != s[:hostEnd] {
		return host + s[hostEnd:end]
	}
	return s[:end]
}

// PathDepth reports the number of directories in the URL's path (the
// file component is not counted).
func PathDepth(u string) int {
	return strings.Count(Path(u)[1:], "/")
}
