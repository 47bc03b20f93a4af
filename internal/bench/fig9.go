package bench

import (
	"fmt"
	"math"

	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/solver"
	"ugache/internal/stats"
	"ugache/internal/workload"
)

func init() {
	register("fig9", "hotness-block batching: entries per log-scale level and block-size control (§6.3)", figure9)
}

// figure9 renders the paper's Figure 9 as data: the distribution of entries
// over log-scale hotness levels and how the §6.3 coarse/fine block-size
// control splits them, for a profiled GNN workload.
func figure9(o Options) (*Result, error) {
	ds, err := dataset(graph.PA.Name, o, graph.PA.Build)
	if err != nil {
		return nil, err
	}
	p := platform.ServerC()
	// Build the block structure via the solver on degree-proxy hotness
	// (deterministic and cheap; the block shapes are what Fig. 9 shows).
	n := int64(ds.G.NumNodes())
	indeg := make([]int64, n)
	for _, tgt := range ds.G.Indices {
		indeg[tgt]++
	}
	hot := workload.DegreeHotness(indeg, 100000)
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = n / 12
	}
	in := &solver.Input{P: p, Hotness: hot, EntryBytes: 512, Capacity: caps}
	pl, err := (solver.UGache{}).Solve(in)
	if err != nil {
		return nil, err
	}

	type level struct {
		blocks             int
		entries            int64
		minBlock, maxBlock int64
	}
	levels := map[int]*level{}
	order := []int{}
	for _, b := range pl.Blocks {
		lv := solver.HotnessLevel(b.HotPerEntry)
		l, ok := levels[lv]
		if !ok {
			l = &level{minBlock: 1 << 62}
			levels[lv] = l
			order = append(order, lv)
		}
		l.blocks++
		l.entries += b.Entries()
		if b.Entries() < l.minBlock {
			l.minBlock = b.Entries()
		}
		if b.Entries() > l.maxBlock {
			l.maxBlock = b.Entries()
		}
	}
	t := stats.NewTable("Figure 9: hotness blocks per log2 level (PA degree hotness, Server C)",
		"log2(hotness)", "entries", "%of total", "blocks", "min blk", "max blk")
	total := float64(pl.NumEntries())
	for _, lv := range order {
		l := levels[lv]
		label := fmt.Sprintf("%d", lv)
		if lv == math.MinInt32 {
			label = "unseen"
		}
		t.AddRow(label,
			fmt.Sprintf("%d", l.entries),
			fmt.Sprintf("%.2f%%", 100*float64(l.entries)/total),
			fmt.Sprintf("%d", l.blocks),
			fmt.Sprintf("%d", l.minBlock),
			fmt.Sprintf("%d", l.maxBlock))
	}
	return &Result{Name: "fig9", Text: t.String() +
		fmt.Sprintf("\nTotal blocks: %d (budget %d). Paper shape (§6.3/Fig. 9): high levels split\n"+
			"into ≥N fine blocks; low levels capped at 0.5%% of entries per block;\n"+
			"E shrinks from millions of entries to <1000 blocks.\n",
			len(pl.Blocks), solver.DefaultBlockBudget)}, nil
}
