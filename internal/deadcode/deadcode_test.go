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
	"path"
	"path/filepath"
	"regexp"
	"slices"
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
	"metrics.HistSnapshot.TailExemplar":    "metrics, query and router tests observe the exemplar mechanism through it",
	"btree.Tree.Height":                    "btree tests bound the tree's depth through it",
	"textindex.Index.NumTerms":             "textindex tests check the vocabulary size through it",
	"trace.FromContext":                    "trace and serve tests read the context's span through it",
	"urlutil.PathDepth":                    "urlutil tests pin the depth rule PrefixAtDepth splits by",
	"coding.Huffman.TotalBits":             "coding tests check code optimality through it",
	"randutil.RNG.Int63":                   "randutil tests check the stream's range through it",
	"delta.Overlay.AddPage":                "delta tests grow the page space through it; /update carries edges only",
	"webgraph.Graph.HasEdge":               "webgraph, synth and mining tests check single edges through it",
	"query.Engine.RunAll":                  "the serial reference that query tests compare concurrent runs with",

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

// noImplementer lists the exported interfaces under internal/ that no
// type implements, keyed pkg.Interface with the reason. An entry whose
// interface is gone, or has an implementer now, is itself a failure.
var noImplementer = map[string]string{
	"store.Hedger": "benchmark/wrap.go's tracedStore.SetHedge still type-asserts to it; ROADMAP item 1(7) deletes both",
}

// TestEveryInterfaceHasAnImplementer fails, by file and line, on an
// exported interface under internal/ that no non-test type under
// internal/ or cmd/ declares every method of, by name. Interfaces it
// embeds from its own package count with their methods; a type's
// methods are the ones declared on it, not promoted through a field. An
// interface nothing implements is a type assertion that always fails.
func TestEveryInterfaceHasAnImplementer(t *testing.T) {
	type iface struct {
		methods  []string
		embedded []string // interfaces of the same package
		pos      token.Position
	}
	ifaces := map[string]*iface{}           // by pkg.Interface
	methods := map[string]map[string]bool{} // method names by dir.Type
	root := eachGoFile(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || !(strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) {
			return
		}
		dir := filepath.Dir(rel)
		for _, d := range f.Decls {
			switch x := d.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil {
					key := dir + "." + receiverType(x.Recv.List[0].Type)
					if methods[key] == nil {
						methods[key] = map[string]bool{}
					}
					methods[key][x.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !strings.HasPrefix(rel, "internal/") {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					in := &iface{pos: fset.Position(ts.Pos())}
					for _, m := range it.Methods.List {
						if len(m.Names) == 0 {
							if id, ok := m.Type.(*ast.Ident); ok {
								in.embedded = append(in.embedded, filepath.Base(dir)+"."+id.Name)
							}
						}
						for _, id := range m.Names {
							in.methods = append(in.methods, id.Name)
						}
					}
					ifaces[filepath.Base(dir)+"."+ts.Name.Name] = in
				}
			}
		}
	})
	var methodSet func(key string) []string
	methodSet = func(key string) []string {
		in := ifaces[key]
		if in == nil {
			return nil
		}
		all := append([]string(nil), in.methods...)
		for _, e := range in.embedded {
			all = append(all, methodSet(e)...)
		}
		return all
	}
	implemented := func(names []string) bool {
		for _, have := range methods {
			ok := true
			for _, n := range names {
				if !have[n] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	for key, in := range ifaces {
		has := implemented(methodSet(key))
		_, kept := noImplementer[key]
		switch {
		case has && kept:
			t.Errorf("allowlist entry %s is stale: a type implements it now", key)
		case !has && !kept:
			rel, _ := filepath.Rel(root, in.pos.Filename)
			t.Errorf("%s:%d: no type under internal/ or cmd/ implements %s, so every assertion to it fails: delete it, or give it an implementer", rel, in.pos.Line, key)
		}
	}
	t.Logf("%d exported interfaces", len(ifaces))
	for key := range noImplementer {
		if ifaces[key] == nil {
			t.Errorf("allowlist entry %s is stale: no such interface under internal/", key)
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

// TestOneLogPath fails, by file and line, on a non-test file under
// internal/ or cmd/ that imports the standard log package: a server's
// errors, and net/http's own, go to the default log/slog logger, and
// everything else a program prints is its output. examples/ is exempt:
// those programs exit through log.Fatal.
func TestOneLogPath(t *testing.T) {
	eachGoFile(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") || !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			return
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"log"` {
				t.Errorf("%s:%d: imports log: report errors through log/slog's default logger", rel, fset.Position(imp.Pos()).Line)
			}
		}
	})
}

// TestMakefileRunPatternsMatch fails on a `-run` alternative in the
// Makefile that matches no Test, Fuzz or Benchmark function of the
// packages on its line, which go test would pass running nothing.
// `-run xxx`, the benchmark targets' way of running no test, is exempt.
func TestMakefileRunPatternsMatch(t *testing.T) {
	funcs := map[string][]string{} // package directory → its test functions
	isTest := regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
	root := eachGoFile(t, func(rel string, _ *token.FileSet, f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasSuffix(rel, "_test.go") && isTest.MatchString(fn.Name.Name) {
				funcs[path.Dir(rel)] = append(funcs[path.Dir(rel)], fn.Name.Name)
			}
		}
	})
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run '([^']*)'|-run (\S+)`)
	for i, line := range strings.Split(string(makefile), "\n") {
		m := run.FindStringSubmatch(line)
		if m == nil || m[2] == "xxx" || !strings.HasPrefix(line, "\t") { // a recipe line, not a comment
			continue
		}
		var names []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				names = append(names, funcs[path.Clean(field)]...)
			}
		}
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			if re := regexp.MustCompile(strings.Split(alt, "/")[0]); !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("Makefile:%d: -run alternative %q matches no test of its packages", i+1, alt)
			}
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

// oneValued lists the config fields that stay fields although no
// non-test file sets them off their default, keyed pkg.Type.Field with
// the reason. An entry whose field is gone, or which a non-test file now
// sets, is itself a failure.
var oneValued = map[string]string{
	"partition.Config.Stopping":      "StopAbortMax is the paper's own stopping rule, the reference DESIGN §5.1 sets the exhaustive default against",
	"partition.Config.AbortMaxFrac":  "the paper's abortmax (6 %), read only under StopAbortMax",
	"snode.Config.MaxFileSize":       "only a test can make it small enough to reach index-file rollover (the paper's bound is 500 MB)",
	"admission.Config.EstService":    "only a test can make the service estimate small enough to reach a sub-second Retry-After",
	"admission.Config.MinRetryAfter": "as EstService: the clamp's lower end is reachable only with a test-sized value",
	"admission.Config.MaxRetryAfter": "as EstService: the clamp's upper end is reachable only with a test-sized value",
	"pagerank.Config.Damping":        "the harness calls pagerank.DefaultConfig(); the three are the algorithm's textbook parameters",
	"pagerank.Config.Iterations":     "as Damping",
	"pagerank.Config.Tolerance":      "as Damping",
	"synth.Config.MeanOutDegree":     "a model parameter of the generator: ROADMAP item 4(ii) is about to vary one",
	"synth.Config.IntraDomainProb":   "as MeanOutDegree",
	"synth.Config.URLLocalityProb":   "as MeanOutDegree",
	"synth.Config.CopyProb":          "as MeanOutDegree",
	"synth.Config.CopyFraction":      "as MeanOutDegree",
	"synth.Config.PagesPerDomain":    "as MeanOutDegree",
	"bench.Config.Out":               "bench tests capture the rendered tables through it",
	"ingest.Options.Manifest":        "a deployment path: a checksum manifest kept apart from the dataset it covers; only a test names one today",
}

// TestNoOptionOnlyDefaultsSet is the guard for configuration: an
// exported field of an exported Config/Options struct under internal/ is
// an option only while some non-test file of the module gives it a value
// — as a composite-literal key, the target of an assignment or an
// address handed to the flag package — other than its own package's
// default: a function there with "default" in its name, or the
// `if c.F <= 0 { c.F = … }` that fills a zero field. A field nothing else
// sets has one value: make it a constant. A key in a literal that names
// its type counts for that type alone; every other set is matched by
// field name like the guards above (a `cfg.Seed = …` anywhere keeps every
// struct's Seed), so the guard errs toward keeping.
func TestNoOptionOnlyDefaultsSet(t *testing.T) {
	type field struct {
		typ, name, dir string // typ is pkg.Type
		pos            token.Position
	}
	type set struct {
		typ, dir  string // typ is "" when the site does not name it
		isDefault bool
	}
	var fields []field
	sets := map[string][]set{} // by field name

	root := eachGoFile(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		dir := filepath.Dir(rel)
		pkg := filepath.Base(dir)
		for _, d := range f.Decls {
			inDefault := false
			params := map[string]bool{} // of a default constructor: a value made from one is the caller's
			if fd, ok := d.(*ast.FuncDecl); ok && strings.Contains(strings.ToLower(fd.Name.Name), "default") {
				inDefault = true
				for _, p := range fd.Type.Params.List {
					for _, id := range p.Names {
						params[id.Name] = true
					}
				}
			}
			isDefault := func(value ast.Expr) bool {
				fromCaller := false
				ast.Inspect(value, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && params[id.Name] {
						fromCaller = true
					}
					return true
				})
				return inDefault && !fromCaller
			}
			fills := map[ast.Stmt]bool{} // the assignments of a fill-if-zero
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.IfStmt:
					tested := map[string]bool{}
					ast.Inspect(x.Cond, func(c ast.Node) bool {
						if sel, ok := c.(*ast.SelectorExpr); ok {
							tested[sel.Sel.Name] = true
						}
						return true
					})
					for _, st := range x.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
							if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && tested[sel.Sel.Name] {
								fills[st] = true
							}
						}
					}
				case *ast.CompositeLit:
					typ := ""
					switch lt := x.Type.(type) {
					case *ast.Ident:
						typ = pkg + "." + lt.Name
					case *ast.SelectorExpr:
						if p, ok := lt.X.(*ast.Ident); ok {
							typ = p.Name + "." + lt.Sel.Name
						}
					}
					for _, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								sets[id.Name] = append(sets[id.Name], set{typ, dir, isDefault(kv.Value)})
							}
						}
					}
				case *ast.AssignStmt:
					// a.B.C = v sets C, and B through it.
					for _, lhs := range x.Lhs {
						for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
							sets[sel.Sel.Name] = append(sets[sel.Sel.Name], set{"", dir, inDefault || fills[x]})
						}
					}
				case *ast.UnaryExpr:
					if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND {
						sets[sel.Sel.Name] = append(sets[sel.Sel.Name], set{"", dir, inDefault})
					}
				case *ast.TypeSpec:
					st, ok := x.Type.(*ast.StructType)
					n := x.Name.Name
					if !ok || !strings.HasPrefix(rel, "internal/") || !x.Name.IsExported() ||
						!(strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options")) {
						return true
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{pkg + "." + n, id.Name, dir, fset.Position(id.Pos())})
							}
						}
					}
				}
				return true
			})
		}
	})

	declared, declares := map[string]bool{}, map[string]bool{} // by pkg.Type.Field; by directory.Field
	for _, f := range fields {
		declares[f.dir+"."+f.name] = true
	}
	for _, f := range fields {
		key := f.typ + "." + f.name
		declared[key] = true
		isSet := false
		for _, s := range sets[f.name] {
			// A default belongs to the type its literal names, or to the
			// struct with such a field its own package declares.
			own := s.typ == f.typ || s.typ == "" && declares[s.dir+"."+f.name]
			if (s.typ == "" || s.typ == f.typ) && !(s.isDefault && own) {
				isSet = true
				break
			}
		}
		_, kept := oneValued[key]
		switch {
		case isSet && kept:
			t.Errorf("allowlist entry %s is stale: a non-test file sets %s off its default now", key, f.name)
		case !isSet && !kept:
			rel, _ := filepath.Rel(root, f.pos.Filename)
			t.Errorf("%s:%d: no non-test file sets %s off its default: it has one value, make it a constant", rel, f.pos.Line, key)
		}
	}
	t.Logf("%d exported config fields", len(fields))
	for key := range oneValued {
		if !declared[key] {
			t.Errorf("allowlist entry %s is stale: no such field under internal/", key)
		}
	}
}
