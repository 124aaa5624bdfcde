// Package deadcode holds no code, only a guard: everything in this
// module lives under internal/, so an exported function or method that
// no non-test file references has no caller anywhere, and neither has an
// unexported one that only the _test.go files of its package reference.
// The tests below fail on each one they find.
package deadcode

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed lists the deliberate exceptions, keyed as the guard prints
// them (pkg.Func or pkg.Type.Method, pkg being the directory under
// internal/). Two kinds only: observers that tests of a kept behaviour
// read, and methods that satisfy a standard-library interface. An entry
// whose declaration is gone, or whose name a non-test file now uses, is
// itself a failure.
var allowed = map[string]string{
	"snode.Representation.InflightDecodes": "flight tests check the single-flight table drains to zero through it",
	"snode.Representation.HedgeStats":      "hedging tests read fired/won counts through it",
	"metrics.HistSnapshot.TailExemplar":    "metrics, query and router tests observe the exemplar mechanism through it",
	"btree.Tree.Height":                    "btree tests bound the tree's depth through it",
	"textindex.Index.NumTerms":             "textindex tests check the vocabulary size through it",
	"trace.FromContext":                    "trace and serve tests read the context's span through it",
	"urlutil.PathDepth":                    "urlutil tests pin the depth rule PrefixAtDepth splits by",
	"coding.Huffman.TotalBits":             "coding tests check code optimality through it",
	"randutil.RNG.Int63":                   "randutil tests check the stream's range through it",
	"delta.Overlay.AddPage":                "delta tests grow the page space through it; /update carries edges only",
	"webgraph.Graph.HasEdge":               "webgraph, synth and mining tests check single edges through it",
	"query.Engine.RunAll":                  "the serial reference that query and delta tests compare concurrent and overlaid runs with",

	"admission.ShedError.Unwrap": "errors.Is and errors.As reach the context error behind a shed through it",
}

type decl struct {
	key  string // pkg.Func or pkg.Type.Method
	name string
	pos  token.Position
}

func TestNoExportedFunctionWithoutACaller(t *testing.T) {
	uses := map[string]int{} // identifier → occurrences in non-test files
	var decls []decl

	root := eachGoFile(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		internal := strings.HasPrefix(rel, "internal/")
		pkg := filepath.Base(filepath.Dir(rel))
		countIdents(f, uses)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// The declaration's own name is not a use of it.
			uses[fd.Name.Name]--
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				// An unexported type's exported methods are there for an
				// interface the standard library calls them through (sort,
				// heap), so no file of the module names them.
				if !ast.IsExported(recv) {
					continue
				}
				key = pkg + "." + recv + "." + fd.Name.Name
			}
			decls = append(decls, decl{key: key, name: fd.Name.Name, pos: fset.Position(fd.Pos())})
		}
	})

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.name] > 0 {
			if _, ok := allowed[d.key]; ok {
				t.Errorf("allowlist entry %s is stale: a non-test file references %s now", d.key, d.name)
			}
			continue
		}
		if _, ok := allowed[d.key]; !ok {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			t.Errorf("%s:%d: exported %s is referenced by no non-test file: delete it, or give it a caller", rel, d.pos.Line, d.key)
		}
	}
	var stale []string
	for key := range allowed {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allowlist entry %s is stale: no such declaration under internal/", key)
	}
}

// TestNoUnexportedFunctionOnlyTestsCall is the same guard one level
// down: an unexported function or method declared in a non-test file,
// which no non-test file of its package names and some _test.go file of
// it does, is kept alive by its tests alone. A reference the tests
// compare with (an oracle) belongs in the test file that uses it; a
// path only tests take is deleted or given a caller. There is no
// allowlist.
func TestNoUnexportedFunctionOnlyTestsCall(t *testing.T) {
	type pkgFuncs struct {
		uses, testUses map[string]int // identifier → occurrences in the package's non-test / test files
		decls          []decl
	}
	pkgs := map[string]*pkgFuncs{} // by directory

	root := eachGoFile(t, func(rel string, fset *token.FileSet, f *ast.File) {
		dir, isTest := filepath.Dir(rel), strings.HasSuffix(rel, "_test.go")
		p := pkgs[dir]
		if p == nil {
			p = &pkgFuncs{uses: map[string]int{}, testUses: map[string]int{}}
			pkgs[dir] = p
		}
		uses := p.uses
		if isTest {
			uses = p.testUses
		}
		countIdents(f, uses)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			uses[fd.Name.Name]-- // the declaration's own name is not a use of it
			if isTest || fd.Name.IsExported() {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				key = receiverType(fd.Recv.List[0].Type) + "." + key
			}
			p.decls = append(p.decls, decl{key: key, name: fd.Name.Name, pos: fset.Position(fd.Pos())})
		}
	})
	for _, p := range pkgs {
		for _, d := range p.decls {
			if p.uses[d.name] > 0 || p.testUses[d.name] == 0 {
				continue
			}
			rel, _ := filepath.Rel(root, d.pos.Filename)
			t.Errorf("%s:%d: unexported %s is referenced only by the package's tests: delete it, give it a caller, or move it into the test file that uses it", rel, d.pos.Line, d.key)
		}
	}
}

// rawFileIO lists the files that may frame integers or create files
// themselves, keyed by path with the reason. Everything else goes through
// internal/coding (WriteFile, Writer, Reader): an artifact is written
// whole through one function and its integers are read back through one
// set of checks. An entry whose file no longer does either is stale, and
// a failure.
var rawFileIO = map[string]string{
	"internal/snode/builder.go": "the index-file writer stays open across a whole build and rolls to a new file by size",
	"internal/pager/pager.go":   "a page file is opened once and written in place, page by page, for the store's lifetime",
	"internal/bench/csv.go":     "a report for people and plotting tools, not an artifact anything reads back",
	"cmd/snquery/main.go":       "-trace-out is a report for people, not an artifact anything reads back",
}

// TestOneWayToPutAnArtifactOnDisk fails, by file and line, on a non-test
// file outside internal/coding that calls one of encoding/binary's varint
// functions, os.Create, os.WriteFile, or os.OpenFile with a flag that
// writes. benchmark/ is not walked: the harness writes its result files
// itself, and a product change does not edit it.
func TestOneWayToPutAnArtifactOnDisk(t *testing.T) {
	writes := func(flag ast.Expr) (w bool) {
		ast.Inspect(flag, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch id.Name {
				case "O_WRONLY", "O_RDWR", "O_CREATE", "O_APPEND", "O_TRUNC":
					w = true
				}
			}
			return true
		})
		return w
	}
	hits := map[string]int{}
	eachGoFile(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(rel, "internal/coding/") || strings.HasPrefix(rel, "benchmark/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch {
			case pkg.Name == "binary" && strings.HasSuffix(strings.ToLower(name), "varint"):
			case pkg.Name == "os" && (name == "Create" || name == "WriteFile"):
			case pkg.Name == "os" && name == "OpenFile" && len(call.Args) > 1 && writes(call.Args[1]):
			default:
				return true
			}
			hits[rel]++
			if _, ok := rawFileIO[rel]; !ok {
				t.Errorf("%s:%d: %s.%s outside internal/coding: write the file through coding.WriteFile and read its integers through coding.Reader", rel, fset.Position(call.Pos()).Line, pkg.Name, name)
			}
			return true
		})
	})
	for file := range rawFileIO {
		if hits[file] == 0 {
			t.Errorf("allowlist entry %s is stale: the file no longer frames integers or creates files itself", file)
		}
	}
}

// eachGoFile parses every Go file of the module — generated output,
// testdata and dot directories aside — and hands it to fn with its
// slash-separated path under the module root, which it returns.
func eachGoFile(t *testing.T, fn func(rel string, fset *token.FileSet, f *ast.File)) (root string) {
	t.Helper()
	root = moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata" || n == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fn(filepath.ToSlash(rel), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// countIdents adds every identifier occurrence of f to uses.
func countIdents(f *ast.File, uses map[string]int) {
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			uses[id.Name]++
		}
		return true
	})
}

func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}
