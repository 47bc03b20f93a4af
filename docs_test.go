package ugache_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"ugache/internal/cache"
	"ugache/internal/cluster"
	"ugache/internal/core"
	"ugache/internal/platform"
	"ugache/internal/serve"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// registeredMetrics builds the default stack — two core.Build nodes on a
// clustered platform, a default serve.New on each, a default cluster.NewFront
// over them, and a drift-mode core.NewController — against one registry and
// returns every metric name it registered. Per-link gauges fold into their
// `sim_link_util_<link>` pattern.
func registeredMetrics(t *testing.T) map[string]bool {
	t.Helper()
	const entries, machines = 2000, 2
	p, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(machines))
	if err != nil {
		t.Fatal(err)
	}
	hot := make(workload.Hotness, entries)
	for i := range hot {
		hot[i] = math.Pow(float64(i+1), -1.1)
	}
	reg := telemetry.NewRegistry(p.N * machines)
	ring, err := cluster.NewRing(machines, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*cluster.Node
	for i := 0; i < machines; i++ {
		self := i
		sys, err := core.Build(core.Config{
			Platform: p, Hotness: hot, EntryBytes: 64, CacheRatio: 0.1, Telemetry: reg,
			Owned: func(k int64) bool { return ring.Owner(k) == self },
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(sys, serve.Config{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		nodes = append(nodes, &cluster.Node{Sys: sys, Srv: srv})
	}
	front, err := cluster.NewFront(nodes, cluster.FrontConfig{Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	if _, err := core.NewController(nodes[0].Sys, core.ControllerConfig{
		Mode: core.RefreshDrift, Sampler: cache.NewHotnessSampler(entries, 1),
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			name := f[2]
			if strings.HasPrefix(name, "sim_link_util_") {
				name = "sim_link_util_<link>"
			}
			names[name] = true
		}
	}
	return names
}

// TestMetricCatalogueMatchesDocs holds DESIGN.md §6.2's metric catalogue to
// the code in both directions: every metric the stack registers has a row,
// every row names a registered metric, and every metric-shaped name in
// README.md or DESIGN.md prose (globs and brace lists expanded) matches a
// row of the catalogue — so a renamed or deleted counter cannot linger in the
// docs.
func TestMetricCatalogueMatchesDocs(t *testing.T) {
	registered := registeredMetrics(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- metric-catalogue:begin -->", "<!-- metric-catalogue:end -->"
	_, rest, ok := strings.Cut(string(design), begin)
	table, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %s ... %s block", begin, end)
	}
	catalogue := map[string]bool{}
	for _, row := range regexp.MustCompile("(?m)^\\| `([a-z0-9_<>]+)` \\|").FindAllStringSubmatch(table, -1) {
		catalogue[row[1]] = true
	}
	var problems []string
	for name := range registered {
		if !catalogue[name] {
			problems = append(problems, "registered, but has no row in DESIGN.md's catalogue: "+name)
		}
	}
	for name := range catalogue {
		if !registered[name] {
			problems = append(problems, "in DESIGN.md's catalogue, but nothing registers it: "+name)
		}
	}

	// Prose: any `serve_…`-shaped token must resolve into the catalogue.
	token := regexp.MustCompile("`((?:serve|core|cluster|cache|sim_link)_[a-z0-9_{},*<>]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllStringSubmatch(string(text), -1) {
			for _, pat := range expandBraces(m[1]) {
				if !matchesAny(pat, catalogue) {
					problems = append(problems, doc+" mentions `"+m[1]+"`: no catalogued metric matches "+pat)
				}
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// expandBraces expands one {a,b,c} list in s.
func expandBraces(s string) []string {
	pre, rest, ok := strings.Cut(s, "{")
	list, post, ok2 := strings.Cut(rest, "}")
	if !ok || !ok2 {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(list, ",") {
		out = append(out, pre+alt+post)
	}
	return out
}

// matchesAny reports whether pat — a metric name, or a prefix ending in * —
// matches a catalogued name.
func matchesAny(pat string, catalogue map[string]bool) bool {
	prefix, glob := strings.CutSuffix(pat, "*")
	for name := range catalogue {
		if name == pat || (glob && strings.HasPrefix(name, prefix)) {
			return true
		}
	}
	return false
}

// docsChecked are the documents TestDocsResolve holds to the code.
var docsChecked = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// codeIndex is what a document's references resolve against: the parsed Go
// files of the tree, test files included, and the tree's file list.
type codeIndex struct {
	pkgDir  map[string]string          // package name -> its directory
	decls   map[string]map[string]bool // directory -> top-level names, test functions included
	isType  map[string]bool            // every type name declared anywhere
	members map[string]map[string]bool // type name -> its methods, fields and interface methods
	embeds  map[string][]string        // type name -> the types it embeds, aliases or is defined as
	consts  map[string]bool            // the values of the string constants
	flags   map[string]map[string]bool // command (ugache-serve) -> the flag names it registers
	metrics map[string]bool            // the metric names of benchmark/catalogue.go
	paths   []string                   // every file and directory, slash-separated
}

// baseTypeName is the type name under pointers, type arguments and package
// qualifiers, or "".
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func indexCode(t *testing.T, files []*censusFile) *codeIndex {
	t.Helper()
	ix := &codeIndex{
		pkgDir: map[string]string{}, decls: map[string]map[string]bool{}, isType: map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{}, consts: map[string]bool{},
		flags: map[string]map[string]bool{}, metrics: map[string]bool{},
	}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	fieldList := func(typ string, fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, n := range f.Names {
				member(typ, n.Name)
			}
			if len(f.Names) == 0 { // embedded: its name is a field, its members are promoted
				if base := baseTypeName(f.Type); base != "" {
					member(typ, base)
					ix.embeds[typ] = append(ix.embeds[typ], base)
				}
			}
		}
	}
	metric := regexp.MustCompile(`^[a-z]+\.[a-z0-9_]+$`)
	for _, f := range files {
		if name := f.ast.Name.Name; !f.test && name != "main" {
			ix.pkgDir[name] = f.dir
		}
		decls := ix.decls[f.dir]
		if decls == nil {
			decls = map[string]bool{}
			ix.decls[f.dir] = decls
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[d.Name.Name] = true
				} else if recv := baseTypeName(d.Recv.List[0].Type); recv != "" {
					member(recv, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decls[s.Name.Name] = true
						ix.isType[s.Name.Name] = true
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fieldList(s.Name.Name, tt.Fields)
						case *ast.InterfaceType:
							fieldList(s.Name.Name, tt.Methods)
						default:
							if base := baseTypeName(s.Type); base != "" {
								ix.embeds[s.Name.Name] = append(ix.embeds[s.Name.Name], base)
							}
						}
					case *ast.ValueSpec:
						for i, n := range s.Names {
							decls[n.Name] = true
							if d.Tok != token.CONST || i >= len(s.Values) {
								continue
							}
							if lit, ok := s.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
								v, _ := strconv.Unquote(lit.Value)
								ix.consts[v] = true
							}
						}
					}
				}
			}
		}
		cmd, isCmd := strings.CutPrefix(f.dir, "cmd/")
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch {
			case isCmd && !f.test:
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						if ix.flags[cmd] == nil {
							ix.flags[cmd] = map[string]bool{}
						}
						ix.flags[cmd][name] = true
						break
					}
				}
			case f.path == "benchmark/catalogue.go":
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, _ := strconv.Unquote(lit.Value); metric.MatchString(v) {
						ix.metrics[v] = true
					}
				}
			}
			return true
		})
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		ix.paths = append(ix.paths, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// hasMember reports whether a type named typ, or one it embeds or aliases,
// has a method, field or interface method named name.
func (ix *codeIndex) hasMember(typ, name string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(typ string) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		if ix.members[typ][name] {
			return true
		}
		for _, e := range ix.embeds[typ] {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

var (
	fileExt    = regexp.MustCompile(`\.(go|json|jsonl|golden|md|sh|txt|pprof|mod)$`)
	lineSuffix = regexp.MustCompile(`:\d+(?:[–-]\d+)?$`)
	callArgs   = regexp.MustCompile(`\([^()]*\)|\{[^{}]*\}`)
	qualified  = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+$`)
)

// resolvePath checks a backticked path or file name: some file or directory
// of the tree ends in it (`*` matches within a path element, `…` across
// them, `<name>` one whole element), or a string constant of the code spells
// it. A `:N` or `:N–M` suffix cites lines, which a file it names must have.
func (ix *codeIndex) resolvePath(s string) string {
	cited := lineSuffix.FindString(s)
	var first, last int
	if cited != "" {
		lo, hi, isRange := strings.Cut(strings.ReplaceAll(cited[1:], "–", "-"), "-")
		first, _ = strconv.Atoi(lo)
		last = first
		if isRange {
			last, _ = strconv.Atoi(hi)
		}
	}
	s = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSuffix(s, cited), "./"), "/")
	if ix.consts[s] && cited == "" {
		return ""
	}
	var pat strings.Builder
	for rest := s; rest != ""; {
		switch r := rest[0]; {
		case r == '*':
			pat.WriteString(`[^/]*`)
			rest = rest[1:]
		case strings.HasPrefix(rest, "…"):
			pat.WriteString(`.*`)
			rest = rest[len("…"):]
		case r == '<' && strings.Contains(rest, ">"):
			pat.WriteString(`[^/]+`)
			rest = rest[strings.Index(rest, ">")+1:]
		default:
			pat.WriteString(regexp.QuoteMeta(rest[:1]))
			rest = rest[1:]
		}
	}
	re := regexp.MustCompile(`(?:^|/)` + pat.String() + `$`)
	short := ""
	for _, p := range ix.paths {
		if !re.MatchString(p) {
			continue
		}
		if cited == "" {
			return ""
		}
		if raw, err := os.ReadFile(p); err == nil {
			n := strings.Count(strings.TrimSuffix(string(raw), "\n")+"\n", "\n")
			if 1 <= first && first <= last && last <= n {
				return ""
			}
			short = fmt.Sprintf("%s has %d lines, so %s cites none of them", p, n, cited[1:])
		}
	}
	if short != "" {
		return short
	}
	return "no file or directory of the tree, and no string constant, is " + s
}

// TestResolvePathChecksCitedLines holds a cited line or range to the lines
// the file has.
func TestResolvePathChecksCitedLines(t *testing.T) {
	raw, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	n := strings.Count(string(raw), "\n")
	ix := &codeIndex{paths: []string{".", "go.mod"}}
	for cite, ok := range map[string]bool{
		"go.mod": true, "go.mod:1": true, fmt.Sprintf("./go.mod:1–%d", n): true, fmt.Sprintf("go.mod:%d-%d", n, n): true,
		"go.mod:0": false, fmt.Sprintf("go.mod:%d", n+1): false, "go.mod:2–1": false, fmt.Sprintf("go.mod:1-%d", n+1): false,
	} {
		if p := ix.resolvePath(cite); (p == "") != ok {
			t.Errorf("`%s`: resolves %v (%q), want %v", cite, p == "", p, ok)
		}
	}
}

// resolveName checks a backticked Go name: pkg.Name names a top-level
// declaration of a module package (or a metric of benchmark/catalogue.go),
// pkg.Type.Member and Type.Member a member of a type of that name. Names
// whose qualifier is neither a module package nor a type are not the module's
// (math.Pow), except that a capitalised one must be a type the module declares.
func (ix *codeIndex) resolveName(s string) string {
	parts := strings.Split(s, ".")
	if dir, ok := ix.pkgDir[parts[0]]; ok {
		if !ix.decls[dir][parts[1]] && !ix.metrics[s] {
			return "package " + parts[0] + " declares no " + parts[1] + ", and benchmark/catalogue.go has no metric " + s
		}
		parts = parts[1:]
		if len(parts) == 1 {
			return ""
		}
	}
	switch {
	case ix.isType[parts[0]]:
		if !ix.hasMember(parts[0], parts[1]) {
			return "no type " + parts[0] + " in the module has a method or field " + parts[1]
		}
	case unicode.IsUpper(rune(parts[0][0])):
		return "the module declares no type " + parts[0]
	}
	return ""
}

// command returns the ugache-<cmd> a token starts, or "".
func (ix *codeIndex) command(tokens []string, i int) string {
	tok := tokens[i]
	if strings.HasPrefix(tok, "./cmd/") {
		if i < 2 || tokens[i-2] != "go" || tokens[i-1] != "run" {
			return ""
		}
		tok = strings.TrimPrefix(tok, "./cmd/")
	}
	if ix.flags[tok] == nil {
		return ""
	}
	return tok
}

// resolveFlags checks every -flag on every ugache-<cmd> command line in text:
// cmd/ugache-<cmd> registers it. A command line ends at a pipe, a separator,
// a redirection or a comment.
func (ix *codeIndex) resolveFlags(text string) []string {
	var problems []string
	tokens := strings.Fields(text)
	cmd := ""
	for i, tok := range tokens {
		if c := ix.command(tokens, i); c != "" {
			cmd = c
			continue
		}
		switch {
		case tok == "|" || tok == "||" || tok == "&&" || tok == ";" || strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>") || strings.HasPrefix(tok, "#"):
			cmd = ""
		case cmd != "" && len(tok) > 1 && tok[0] == '-' && unicode.IsLetter(rune(strings.TrimLeft(tok, "-")[0])):
			name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
			name = strings.TrimRight(name, ",.;:)")
			if !ix.flags[cmd][name] {
				problems = append(problems, cmd+" registers no flag -"+name)
			}
		}
	}
	return problems
}

// docSpan is a piece of a document and the line it starts on.
type docSpan struct {
	line int
	text string
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// splitDoc returns a markdown document's inline code spans (line breaks
// inside a span read as spaces) and the lines of its fenced blocks (a line
// ending in a backslash joined to the next).
func splitDoc(text string) (spans, fenced []docSpan) {
	lines := strings.Split(text, "\n")
	prose := make([]string, len(lines))
	inFence, cont := false, false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			prose[i] = l
			continue
		}
		if cont {
			fenced[len(fenced)-1].text += " " + l
		} else {
			fenced = append(fenced, docSpan{i + 1, l})
		}
		last := &fenced[len(fenced)-1]
		last.text, cont = strings.CutSuffix(last.text, "\\")
	}
	joined := strings.Join(prose, "\n")
	for _, m := range codeSpan.FindAllStringSubmatchIndex(joined, -1) {
		line := 1 + strings.Count(joined[:m[0]], "\n")
		spans = append(spans, docSpan{line, strings.ReplaceAll(joined[m[2]:m[3]], "\n", " ")})
	}
	return spans, fenced
}

// designSections returns the section numbers of DESIGN.md's headings
// ("6.2" for "### 6.2 Metric catalogue").
func designSections(design string) map[string]bool {
	out := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{1,6}\s+(\d+(?:\.\d+)*)\.?\s`).FindAllStringSubmatch(design, -1) {
		out[m[1]] = true
	}
	return out
}

// TestDocsResolve holds the prose of README.md, DESIGN.md and EXPERIMENTS.md
// to the code, as TestMetricCatalogueMatchesDocs holds metric names, so a
// renamed or deleted name cannot linger in the docs. It fails, naming
// doc:line, for
//
//   - a backticked Go name that does not resolve (resolveName);
//   - a backticked path or file name that nothing in the tree, and no string
//     constant, spells (resolvePath);
//   - a -flag on a ugache-<cmd> command line, inline or fenced, that
//     cmd/ugache-<cmd> does not register (resolveFlags);
//   - a "DESIGN.md §N[.M]" — in the three documents or in any Go file,
//     comments and string literals both — that names no DESIGN.md heading,
//     and, inside DESIGN.md, where a bare §N is the paper's section, a "§N
//     below" or "§N above";
//   - an internal/ package that DESIGN.md's package map (the "## … package
//     map" section: one entry per line that opens with `internal/<name>`) does
//     not list exactly once, or an entry that names no package.
//
// Like the censuses it is syntactic: go/parser, no type checker, names
// matched by spelling.
func TestDocsResolve(t *testing.T) {
	files := parseGo(t, true)
	ix := indexCode(t, files)
	designText, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := designSections(string(designText))
	sectionRef := regexp.MustCompile(`DESIGN\.md(?:'s)?(?:\s|//)*§(\d+(?:\.\d+)*)`)
	var problems []string
	report := func(doc string, line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s:%d: ", doc, line)+fmt.Sprintf(format, args...))
	}
	checkSections := func(doc, text string) {
		for _, m := range sectionRef.FindAllStringSubmatchIndex(text, -1) {
			if n := text[m[2]:m[3]]; !sections[n] {
				report(doc, 1+strings.Count(text[:m[0]], "\n"), "DESIGN.md has no §%s", n)
			}
		}
	}

	for _, doc := range docsChecked {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		checkSections(doc, text)
		spans, fenced := splitDoc(text)
		for _, s := range fenced {
			for _, p := range ix.resolveFlags(s.text) {
				report(doc, s.line, "%s", p)
			}
		}
		for _, s := range spans {
			for _, p := range ix.resolveFlags(s.text) {
				report(doc, s.line, "`%s`: %s", s.text, p)
			}
			tok := strings.TrimSpace(s.text)
			if strings.ContainsAny(tok, " \t") || strings.Contains(tok, "://") || strings.HasPrefix(tok, "/") {
				continue
			}
			first, _, _ := strings.Cut(tok, "/")
			switch top := strings.Contains(tok, "/") && (first == "internal" || first == "cmd" || first == "examples" || first == "benchmark" || first == "scripts"); {
			case top || fileExt.MatchString(lineSuffix.ReplaceAllString(tok, "")):
				if p := ix.resolvePath(tok); p != "" {
					report(doc, s.line, "`%s`: %s", tok, p)
				}
			default:
				name := tok
				for prev := ""; prev != name; {
					prev, name = name, callArgs.ReplaceAllString(name, "")
				}
				if !qualified.MatchString(name) {
					continue
				}
				if p := ix.resolveName(name); p != "" {
					report(doc, s.line, "`%s`: %s", tok, p)
				}
			}
		}
	}

	bare := regexp.MustCompile(`§\d+(?:\.\d+)*\s+(?:below|above)`)
	design := string(designText)
	for _, m := range bare.FindAllStringIndex(design, -1) {
		report("DESIGN.md", 1+strings.Count(design[:m[0]], "\n"), "%q: a bare § is the paper's section; name a DESIGN.md section by its title", strings.Join(strings.Fields(design[m[0]:m[1]]), " "))
	}
	for _, f := range files {
		checkSections(f.path, string(f.src))
	}

	// The package map.
	mapText, head := "", 1
	if loc := regexp.MustCompile(`(?im)^## .*package map.*$`).FindStringIndex(design); loc != nil {
		mapText, head = design[loc[1]:], 1+strings.Count(design[:loc[0]], "\n")
	} else {
		report("DESIGN.md", 1, "no section titled … package map")
	}
	if i := strings.Index(mapText, "\n## "); i >= 0 {
		mapText = mapText[:i]
	}
	listed := map[string]int{}
	entry := regexp.MustCompile("(?m)^(?:[-*] |#+ )?(?:\\*\\*)?`internal/([a-z0-9]+)`")
	packages := map[string]bool{}
	for _, p := range ix.paths {
		if rest, ok := strings.CutPrefix(p, "internal/"); ok && strings.HasSuffix(rest, ".go") && strings.Count(rest, "/") == 1 {
			packages[strings.Split(rest, "/")[0]] = true
		}
	}
	for _, m := range entry.FindAllStringSubmatchIndex(mapText, -1) {
		name := mapText[m[2]:m[3]]
		listed[name]++
		if !packages[name] {
			report("DESIGN.md", head+strings.Count(mapText[:m[0]], "\n"), "the package map lists internal/%s, which does not exist", name)
		}
	}
	for name := range packages {
		if listed[name] != 1 {
			report("DESIGN.md", head, "the package map lists internal/%s %d times, not once", name, listed[name])
		}
	}

	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCalibrationConstantsDocumented holds EXPERIMENTS.md's Known deviations
// to the calibration constants under internal/: every non-test constant named
// …Efficiency or divergenceFactor is listed there, by its qualified name and
// its value, as "`pkg.name` (value)".
func TestCalibrationConstantsDocumented(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Known deviations")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Known deviations section")
	}
	if i := strings.Index(section, "\n## "); i >= 0 {
		section = section[:i]
	}
	section = strings.Join(strings.Fields(section), " ")
	found := 0
	for _, f := range parseTree(t) {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasSuffix(name.Name, "Efficiency") && name.Name != "divergenceFactor" {
						continue
					}
					found++
					value := "?"
					if i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
							value = lit.Value
						}
					}
					want := fmt.Sprintf("`%s.%s` (%s)", filepath.Base(f.dir), name.Name, value)
					if !strings.Contains(section, want) {
						t.Errorf("%s: EXPERIMENTS.md's Known deviations do not list %s", f.path, want)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Error("no calibration constant found under internal/")
	}
}
