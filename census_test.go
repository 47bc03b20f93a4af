package ugache_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusStructs are the option structs the census holds to its rule, by
// directory and type name.
var censusStructs = []struct{ dir, name string }{
	{"internal/serve", "Config"},
	{"internal/cluster", "FrontConfig"},
	{"internal/cache", "DriftConfig"},
	{"internal/cache", "RefreshConfig"},
	{"internal/solver", "UGache"},
	{"internal/solver", "OptimalLP"},
	{"internal/solver", "Options"},
	{"internal/workload", "OpenLoopConfig"},
	{"internal/app", "MemoryModel"},
	{"internal/app", "GNNConfig"},
	{"internal/app", "DLRConfig"},
	{"internal/core", "Config"},
	{"internal/core", "ControllerConfig"},
	{"internal/flight", "BundleConfig"},
	{"internal/platform", "Config"},
	{"internal/bench", "Options"},
}

// censusAllow lists the fields nothing outside a test sets and that stay all
// the same, each with its reason: a public path the tree itself does not
// drive, a seam that a test of other behaviour needs, or values in use beside
// the declaration.
var censusAllow = map[string]string{
	"core.Config.Placement":            "the façade's solve-once path: ugache-solve -save writes what ugache.LoadPlacement reads and ugache.Config.Placement takes back (TestPreSolvedPlacement)",
	"flight.BundleConfig.SkipProfiles": "bundle tests skip the heap profile and goroutine dump they do not read",
	"platform.Config.PairBW":           "two values in use, both beside the declaration: ServerAConfig's uniform mesh and ServerBConfig's DGX-1 cube",
	"platform.Config.Network":          "set beside the declaration by ClusterOf, which benchmark/'s cluster-scatter calls: nil is one machine, a fabric is one machine of a cluster",
}

type censusFile struct {
	path, dir string
	test      bool // a _test.go file
	src       []byte
	ast       *ast.File
	imports   map[string]string // local package name -> directory under the repo root
}

// parseTree parses every non-test Go file of the module, cmd/, examples/ and
// benchmark/ (its own module, but the same tree).
func parseTree(t *testing.T) []*censusFile {
	t.Helper()
	return parseGo(t, false)
}

// parseGo is parseTree's walk, reading the _test.go files too when withTests
// is set.
func parseGo(t *testing.T, withTests bool) []*censusFile {
	t.Helper()
	var files []*censusFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		test := strings.HasSuffix(path, "_test.go")
		if !strings.HasSuffix(path, ".go") || (test && !withTests) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		cf := &censusFile{path: filepath.ToSlash(path), dir: filepath.ToSlash(filepath.Dir(path)), test: test, src: src, ast: f, imports: map[string]string{}}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, "ugache")
			if !ok || (dir != "" && dir[0] != '/') {
				continue
			}
			dir = strings.TrimPrefix(dir, "/")
			if dir == "" {
				dir = "."
			}
			local := filepath.Base(ipath)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			cf.imports[local] = dir
		}
		files = append(files, cf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// observers are the packages under internal/ whose non-test files may import
// internal/telemetry or internal/flight: the layers that write observations,
// and flight itself. The layers below them return values (a refresh report,
// a drift status), and core records them once.
var observers = map[string]bool{
	"internal/core": true, "internal/serve": true, "internal/cluster": true, "internal/bench": true, "internal/flight": true,
}

// TestObserverLayering holds the non-test files under internal/ to
// observers.
func TestObserverLayering(t *testing.T) {
	for _, f := range parseTree(t) {
		if !strings.HasPrefix(f.path, "internal/") || observers[f.dir] {
			continue
		}
		for _, dir := range f.imports {
			if dir == "internal/telemetry" || dir == "internal/flight" {
				t.Errorf("%s imports %s: return the value and let core record it, or add the package to observers with the reason", f.path, dir)
			}
		}
	}
}

// TestOptionCensus holds every exported field of the option structs above to
// the simplicity rule for options: something that is not a test sets it — a
// composite-literal key or an assignment to the field in a non-test file other
// than the one that declares the struct, anywhere in the module, cmd/,
// examples/ or benchmark/ — or censusAllow says why it stays. A field that
// fails has one value in use and wants to be a constant.
//
// The census resolves identity, not spelling (typedTree): a literal key or an
// assigned selector counts for the field the type checker resolves it to,
// through the façade's aliases and elided literal types alike, so a field of
// the same name on another struct sets nothing here.
func TestOptionCensus(t *testing.T) {
	files, info := typedTree(t)

	// The census structs' exported fields, by the checker's field object.
	ids := map[*types.Var]string{}
	for _, s := range censusStructs {
		found := false
		for _, f := range files[s.dir] {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.Name != s.name {
						continue
					}
					st, ok := info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					found = true
					for i := 0; i < st.NumFields(); i++ {
						if v := st.Field(i); v.Exported() {
							ids[v] = filepath.Base(s.dir) + "." + s.name + "." + v.Name()
						}
					}
				}
			}
		}
		if !found {
			t.Errorf("census struct %s.%s not found", s.dir, s.name)
		}
	}

	// Setters: a key or an assigned selector that resolves to a census
	// field, in a file other than the one declaring it.
	set := map[string]bool{}
	for _, fs := range files {
		for _, f := range fs {
			note := func(id *ast.Ident) {
				v, ok := info.Uses[id].(*types.Var)
				if !ok || (f.FileStart <= v.Pos() && v.Pos() <= f.FileEnd) {
					return // not a field, or the declaring file's own defaults
				}
				if name, ok := ids[v.Origin()]; ok {
					set[name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := x.Key.(*ast.Ident); ok {
						note(key)
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}

	var problems []string
	used := map[string]bool{}
	for _, id := range ids {
		switch _, allowed := censusAllow[id]; {
		case set[id] && allowed:
			used[id] = true
			problems = append(problems, id+": on the allowlist, but a non-test file sets it now — drop the entry")
		case allowed:
			used[id] = true
		case !set[id]:
			problems = append(problems, id+": no non-test file but the one declaring it sets it — make it a constant, or give censusAllow the reason it stays")
		}
	}
	for id := range censusAllow {
		if !used[id] {
			problems = append(problems, id+": on the allowlist, but not an unset field of a census struct")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// funcID names a function declaration as the censuses report it:
// pkg.Func, or pkg.Type.Method.
func funcID(f *censusFile, fd *ast.FuncDecl) string {
	id := filepath.Base(f.dir) + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if ix, ok := recv.(*ast.IndexExpr); ok { // a generic receiver
			recv = ix.X
		}
		if tn, ok := recv.(*ast.Ident); ok {
			id += tn.Name + "."
		}
	}
	return id + fd.Name.Name
}

// typedTree type-checks the non-test files of every package in the module,
// cmd/, examples/ and benchmark/ from source, with the standard library only:
// an import under ugache resolves to its directory here, any other through
// go/importer's source importer. It returns the checked packages' files by
// directory and what the checker resolved in them.
func typedTree(t *testing.T) (map[string][]*ast.File, *types.Info) {
	t.Helper()
	im := &treeImporter{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	im.std = importer.ForCompiler(im.fset, "source", nil)
	dirs := map[string]bool{}
	for _, f := range parseTree(t) {
		dirs[f.dir] = true
	}
	for dir := range dirs {
		path := "ugache"
		if dir != "." {
			path += "/" + dir
		}
		if _, err := im.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
	}
	return im.files, im.info
}

// treeImporter is typedTree's importer; see there.
type treeImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // by import path; nil while being checked
	files map[string][]*ast.File    // by directory
	info  *types.Info
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "ugache")
	if !ok || (rel != "" && rel[0] != '/') {
		return im.std.Import(path)
	}
	if pkg, seen := im.pkgs[path]; seen {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	im.pkgs[path] = nil
	dir := strings.TrimPrefix(rel, "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0) // the files the build constraints select
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path], im.files[dir] = pkg, files
	return pkg, nil
}

// funcAllow lists the exported functions and methods under internal/ that no
// non-test file uses and that stay all the same, each with its reason.
var funcAllow = map[string]string{
	"bench.ResetCaches":      "the determinism tests and the package's benchmarks drop the report memos between two runs of one experiment",
	"hashtable.Table.Len":    "the map-model tests, FuzzHashtable and the cache's parallel-fill test hold the live count to their model",
	"hashtable.Dedup.Len":    "the dedup tests and FuzzHashtable hold the distinct-key count to their model",
	"cache.StagingArena.Len": "the staging tests check residency after commits and after ring eviction",
}

// TestFuncCensus is the option census's rule applied to code: every exported
// function or method declared in a non-test file under internal/ is used by
// some non-test file — anywhere in the module, cmd/, examples/ or benchmark/,
// the façade ugache.go (the public API) included — or funcAllow says why it
// stays. One that fails is called by tests alone: delete it, and point its
// tests at the form callers use.
//
// The census resolves identity, not spelling (typedTree; about 3 s on two
// cores, most of it the standard library's source): a use is an
// identifier the type checker resolves to the declared function or method
// itself, so a namesake on another type hides nothing. A function's uses in
// its own body do not count, so one that only calls itself is reported. A
// method also counts when a non-test file calls the method of an interface
// its receiver implements, and the ruleMethods pass, since their callers are
// in the standard library.
func TestFuncCensus(t *testing.T) {
	files, info := typedTree(t)
	used := map[*types.Func]bool{}
	viaInterface := map[string][]*types.Interface{} // method name -> interfaces whose method of that name is called
	type decl struct {
		id string
		fn *types.Func
	}
	var decls []decl
	for dir, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
					if fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
						decls = append(decls, decl{funcID(&censusFile{dir: dir}, fd), self.(*types.Func)})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					used[fn.Origin()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						if it, ok := recv.Type().Underlying().(*types.Interface); ok {
							viaInterface[fn.Name()] = append(viaInterface[fn.Name()], it)
						}
					}
					return true
				})
			}
		}
	}

	var problems []string
	allowed := map[string]bool{}
	for _, d := range decls {
		inUse := used[d.fn]
		if recv := d.fn.Type().(*types.Signature).Recv(); recv != nil && !inUse {
			inUse = ruleMethods[d.fn.Name()]
			for _, it := range viaInterface[d.fn.Name()] {
				inUse = inUse || types.Implements(recv.Type(), it)
			}
		}
		switch _, allow := funcAllow[d.id]; {
		case inUse && allow:
			allowed[d.id] = true
			problems = append(problems, d.id+": on the allowlist, but a non-test file uses it now — drop the entry")
		case allow:
			allowed[d.id] = true
		case !inUse:
			problems = append(problems, d.id+": no non-test file uses it — delete it (tests call the form callers use), or give funcAllow the reason it stays")
		}
	}
	for id := range funcAllow {
		if !allowed[id] {
			problems = append(problems, id+": on the allowlist, but not an unused exported function under internal/")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestForwarderCensus holds the …With names under internal/ to what they are
// kept for. Each is a one-statement forwarder to its plain form — the one
// method of its operation, whose scratch parameter may be nil — and stays
// only because benchmark/ still calls it: no other file names it, tests
// included, so each goes in the change that stops benchmark/ calling it
// (TestFuncCensus reports it then).
func TestForwarderCensus(t *testing.T) {
	files := parseGo(t, true)
	forwarders := map[string]string{} // name -> id
	decl := map[*ast.Ident]bool{}
	var problems []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasSuffix(fd.Name.Name, "With") {
				continue
			}
			id := funcID(f, fd)
			forwarders[fd.Name.Name] = id
			decl[fd.Name] = true
			if fd.Body == nil || len(fd.Body.List) != 1 {
				problems = append(problems, id+": a …With function is one statement that forwards to its plain form — move the logic there")
			}
		}
	}
	for _, f := range files {
		if strings.HasPrefix(f.path, "benchmark/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if x, ok := n.(*ast.Ident); ok && !decl[x] && forwarders[x.Name] != "" {
				problems = append(problems, f.path+": names "+forwarders[x.Name]+", a forwarder kept for benchmark/ — call the plain form")
			}
			return true
		})
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// visibleAllow lists the exported functions, methods and values under
// internal/ that no file outside their package names and that stay exported,
// each with its reason.
var visibleAllow = map[string]string{}

// ruleMethods are the methods exported by rule whatever reads them: they
// satisfy a standard-library interface or are an encoding/json hook, so
// their callers are in the standard library.
var ruleMethods = map[string]bool{"Error": true, "String": true, "ServeHTTP": true, "MarshalJSON": true}

// TestVisibilityCensus holds every exported function, method and value
// declared in a non-test file under internal/ to a reader outside its
// package: a file in another directory — anywhere in the module, cmd/,
// examples/ or benchmark/, tests included — that names it, or visibleAllow
// says why it stays exported. One that fails is read only by its own
// package: unexport it. Functions and values count as named when written
// pkg.Name through an import of their package; methods count when any
// selector outside the package spells their name, and a method named by an
// interface declared in the tree, or in ruleMethods, is exported by rule.
// Types are out of scope, and fields are the option census's.
func TestVisibilityCensus(t *testing.T) {
	files := parseGo(t, true)
	type decl struct{ id, dir, name string }
	var funcs, methods []decl
	byInterface := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						byInterface[name.Name] = true
					}
				}
			}
			return true
		})
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					funcs = append(funcs, decl{funcID(f, d), f.dir, d.Name.Name})
				default:
					methods = append(methods, decl{funcID(f, d), f.dir, d.Name.Name})
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.IsExported() {
							funcs = append(funcs, decl{filepath.Base(f.dir) + "." + name.Name, f.dir, name.Name})
						}
					}
				}
			}
		}
	}
	qualified := map[string]bool{}           // dir + "." + name, written pkg.Name outside dir
	selected := map[string]map[string]bool{} // name -> dirs with a selector .name
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				if dir, ok := f.imports[pkg.Name]; ok && dir != f.dir {
					qualified[dir+"."+sel.Sel.Name] = true
				}
			}
			if selected[sel.Sel.Name] == nil {
				selected[sel.Sel.Name] = map[string]bool{}
			}
			selected[sel.Sel.Name][f.dir] = true
			return true
		})
	}

	var problems []string
	used := map[string]bool{}
	check := func(d decl, read bool) {
		switch _, allowed := visibleAllow[d.id]; {
		case read && allowed:
			used[d.id] = true
			problems = append(problems, d.id+": on the allowlist, but a file outside its package names it now — drop the entry")
		case allowed:
			used[d.id] = true
		case !read:
			problems = append(problems, d.id+": no file outside its package names it — unexport it, or give visibleAllow the reason it stays")
		}
	}
	for _, d := range funcs {
		check(d, qualified[d.dir+"."+d.name])
	}
	for _, d := range methods {
		if byInterface[d.name] || ruleMethods[d.name] {
			continue
		}
		read := false
		for dir := range selected[d.name] {
			read = read || dir != d.dir
		}
		check(d, read)
	}
	for id := range visibleAllow {
		if !used[id] {
			problems = append(problems, id+": on the allowlist, but not an exported name under internal/ that only its package reads")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// sleepAllow lists the test files outside benchmark/ that may call
// time.Sleep, each with its reason. A sleep that waits for a state is a race
// with the machine's speed: order by a channel, a counter or a wait group
// instead, and keep a sleep only where the wall clock is what is tested.
var sleepAllow = map[string]string{
	"internal/serve/close_race_test.go": "a random sub-millisecond pause lands Close at a varying point of the Handle storm: the jitter is the test",
	"internal/workload/poller_test.go":  "TestDriveOpenLoopStall stalls the poller's settle past generatorStall, the wall-clock lag the poller is meant to count",
	"internal/core/core_test.go":        "a goroutine-leak check polls runtime.NumGoroutine, which has no event to wait on, until it falls back to its count before Build",
	"cmd/ugache-serve/run_test.go":      "TestCancelMidOpenLoop polls the live /metrics until a request is served, so the cancel lands mid-run",
}

// TestSleepCensus holds every time.Sleep in a _test.go file outside
// benchmark/ to sleepAllow.
func TestSleepCensus(t *testing.T) {
	var problems []string
	sleeps := map[string]bool{}
	for _, f := range parseGo(t, true) {
		if !f.test || strings.HasPrefix(f.path, "benchmark/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
					sleeps[f.path] = true
				}
			}
			return true
		})
	}
	for path := range sleeps {
		if _, ok := sleepAllow[path]; !ok {
			problems = append(problems, path+": calls time.Sleep — order the test by a channel, counter or wait group, or give sleepAllow the reason it stays")
		}
	}
	for path := range sleepAllow {
		if !sleeps[path] {
			problems = append(problems, path+": on the allowlist, but it calls no time.Sleep — drop the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
