package ugache_test

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

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
	ring := cluster.MustRing(machines, 0, 1)
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
		Mode: core.RefreshDrift, Sampler: cache.NewHotnessSampler(entries, 1), Telemetry: reg,
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
