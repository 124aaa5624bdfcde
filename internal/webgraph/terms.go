package webgraph

import (
	"errors"
	"fmt"
	"strings"
)

// A page's terms (PageMeta.Terms) are one string: the terms in order,
// joined by termSep, and "" for a page without terms. It is the URL
// table's own form, so ingest keeps a table's term field as it reads it,
// and a page costs one string header however many terms it has. This
// file is the only code that knows the separator.
const termSep = ","

// Errors for a term the joined form cannot hold: split back, an empty
// term vanishes into its neighbours' separators and a term holding the
// separator comes back as two.
var (
	errEmptyTerm = errors.New("a term must not be empty")
	errTermSep   = errors.New("a term must not hold " + termSep)
)

// CheckTerm refuses a term the joined form cannot hold: an empty one
// (errEmptyTerm) or one holding the separator (errTermSep).
func CheckTerm(t string) error {
	if t == "" {
		return errEmptyTerm
	}
	if strings.Contains(t, termSep) {
		return fmt.Errorf("term %q: %w", t, errTermSep)
	}
	return nil
}

// checkJoined refuses joined terms holding an empty term: a separator
// that starts or ends them or follows another.
func checkJoined(terms string) error {
	if terms != "" && (strings.HasPrefix(terms, termSep) || strings.HasSuffix(terms, termSep) ||
		strings.Contains(terms, termSep+termSep)) {
		return fmt.Errorf("terms %q: %w", terms, errEmptyTerm)
	}
	return nil
}

// EachTerm calls fn with each of the joined terms, in order.
func EachTerm(terms string, fn func(string)) {
	if terms == "" {
		return
	}
	for {
		t, rest, more := strings.Cut(terms, termSep)
		fn(t)
		if !more {
			return
		}
		terms = rest
	}
}

// CountTerms reports how many terms the joined terms hold.
func CountTerms(terms string) int {
	if terms == "" {
		return 0
	}
	return strings.Count(terms, termSep) + 1
}

// WriteTerms writes terms to b in their joined form.
func WriteTerms(b *strings.Builder, terms []string) {
	for i, t := range terms {
		if i > 0 {
			b.WriteString(termSep)
		}
		b.WriteString(t)
	}
}

// JoinTerms returns terms in their joined form, the form PageMeta.Terms
// holds.
func JoinTerms(terms []string) string {
	return strings.Join(terms, termSep)
}

// HasTerm reports whether the joined terms hold t.
func HasTerm(terms, t string) bool {
	has := false
	EachTerm(terms, func(u string) { has = has || u == t })
	return has
}
