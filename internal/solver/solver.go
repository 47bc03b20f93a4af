// Package solver implements UGache's cache policy (paper §6): given the
// hotness of every embedding entry, the platform's bandwidth hierarchy, and
// per-GPU cache capacities, it decides the storage arrangement (which GPUs
// hold which entries) and the access arrangement (which source each GPU
// reads every entry from) so as to minimize the estimated extraction time.
//
// Entries are ranked by hotness and batched into log-scale hotness blocks
// (§6.3); all policies emit a Placement over those contiguous rank ranges.
// Besides UGache's solver the package provides the baseline policies the
// paper compares against: replication (HPS/GNNLab-style), partition
// (WholeGraph/SOK-style), clique partition (Quiver-style, for platforms
// with unconnected GPU pairs), and the hot-replicate/warm-partition
// heuristic of Song & Jiang [39].
package solver

import (
	"fmt"
	"math"

	"ugache/internal/platform"
	"ugache/internal/workload"
)

// Input bundles everything a policy needs.
type Input struct {
	P       *platform.Platform
	Hotness workload.Hotness
	// EntryBytes is the row size (uniform per dataset, as in the paper's
	// datasets).
	EntryBytes int
	// Capacity[g] is GPU g's cache capacity in entries.
	Capacity []int64
	// BlockBudget caps the number of hotness blocks (0 = DefaultBlockBudget;
	// negative is an error).
	BlockBudget int
}

// DefaultBlockBudget bounds the block count; the paper reduces E "to less
// than one thousand" blocks (§6.3).
const DefaultBlockBudget = 512

func (in *Input) validate() error {
	if in.P == nil {
		return fmt.Errorf("solver: nil platform")
	}
	if len(in.Hotness) == 0 {
		return fmt.Errorf("solver: empty hotness")
	}
	if int64(len(in.Hotness)) > math.MaxInt32 {
		return fmt.Errorf("solver: %d entries exceed int32 rank space", len(in.Hotness))
	}
	if in.EntryBytes <= 0 {
		return fmt.Errorf("solver: EntryBytes must be positive")
	}
	if len(in.Capacity) != in.P.N {
		return fmt.Errorf("solver: %d capacities for %d GPUs", len(in.Capacity), in.P.N)
	}
	for g, c := range in.Capacity {
		if c < 0 {
			return fmt.Errorf("solver: negative capacity on gpu %d", g)
		}
	}
	if in.BlockBudget < 0 {
		return fmt.Errorf("solver: negative block budget %d", in.BlockBudget)
	}
	for e, h := range in.Hotness {
		if h < 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("solver: bad hotness %g at entry %d", h, e)
		}
	}
	return nil
}

func (in *Input) blockBudget() int {
	if in.BlockBudget > 0 {
		return in.BlockBudget
	}
	return DefaultBlockBudget
}

// fallback returns the source uncached blocks are read from: host memory on
// single-machine platforms, the network tier on clustered ones — there the
// local DRAM holds only this machine's 1/M shard of the uncached range, and
// the blended network column (see newCostModel) prices the owned-shard vs
// over-the-wire split exactly.
func (in *Input) fallback() platform.SourceID {
	if in.P.HasNetwork() {
		return in.P.Network()
	}
	return in.P.Host()
}

// Block is a contiguous range of hotness ranks with a common storage and
// access arrangement.
type Block struct {
	// Start and End delimit the rank range [Start, End).
	Start, End int64
	// HotPerEntry is the mean per-entry hotness within the block.
	HotPerEntry float64
	// Store[g] reports whether GPU g caches the block.
	Store []bool
	// Access[i] is the source GPU i reads the block from (a GPU index or
	// the platform's Host()).
	Access []platform.SourceID
}

// Entries returns the block's entry count.
func (b *Block) Entries() int64 { return b.End - b.Start }

// mass returns the block's total hotness (expected accesses/iteration).
func (b *Block) mass() float64 { return b.HotPerEntry * float64(b.Entries()) }

// Placement is a solved cache policy: the coordination structure between
// Solver, Filler, and Extractor (paper §4).
type Placement struct {
	Policy     string
	NumGPUs    int
	EntryBytes int
	// ByRank maps hotness rank (0 = hottest) -> entry.
	ByRank []int32
	// Blocks are ordered by Start and tile [0, NumEntries).
	Blocks []Block
	// blockOf maps entry -> index into Blocks.
	blockOf []int32
	// EstTimes[g] is the model-estimated extraction time per iteration
	// (§6.2), filled by policies that plan with the model.
	EstTimes []float64
	// LowerBound, when non-zero, is a proven lower bound on the modelled
	// makespan of placements uniform within each block the policy solved over
	// (set by OptimalLP); one cutting inside a block can dip under it.
	LowerBound float64
	// SolveNodes is always 0: no policy searches a tree. It goes once
	// benchmark/ stops reading it.
	SolveNodes int64
}

// NumEntries returns the entry count.
func (pl *Placement) NumEntries() int64 { return int64(len(pl.blockOf)) }

// SourceOf returns where GPU dst reads the given entry from.
func (pl *Placement) SourceOf(dst int, entry int64) platform.SourceID {
	return pl.Blocks[pl.blockOf[entry]].Access[dst]
}

// StoredOn reports whether GPU g caches the entry.
func (pl *Placement) StoredOn(g int, entry int64) bool {
	return pl.Blocks[pl.blockOf[entry]].Store[g]
}

// StorageSummary classifies a placement's hotness blocks by storage
// degree — the replication-vs-partition split the UGache solver trades off
// (§6.2): a block stored on every GPU is replicated (hot head), on exactly
// one GPU partitioned (warm middle), on several-but-not-all partially
// replicated, and on none host-resident (cold tail). Mass fields weigh each
// class by expected accesses per iteration; Entries fields by entry count.
type StorageSummary struct {
	ReplicatedBlocks  int
	PartialBlocks     int
	PartitionedBlocks int
	UncachedBlocks    int

	ReplicatedEntries  int64
	PartialEntries     int64
	PartitionedEntries int64
	UncachedEntries    int64

	ReplicatedMass  float64
	PartialMass     float64
	PartitionedMass float64
	UncachedMass    float64
}

// StorageSummary computes the replication-vs-partition split of the
// placement's blocks (see StorageSummary). Solver introspection surfaces it
// as timeline span args so a refresh's placement decisions are inspectable.
func (pl *Placement) StorageSummary() StorageSummary {
	var out StorageSummary
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		stored := 0
		for _, s := range b.Store {
			if s {
				stored++
			}
		}
		entries, mass := b.Entries(), b.mass()
		switch {
		case stored == 0:
			out.UncachedBlocks++
			out.UncachedEntries += entries
			out.UncachedMass += mass
		case stored == 1:
			out.PartitionedBlocks++
			out.PartitionedEntries += entries
			out.PartitionedMass += mass
		case stored == pl.NumGPUs:
			out.ReplicatedBlocks++
			out.ReplicatedEntries += entries
			out.ReplicatedMass += mass
		default:
			out.PartialBlocks++
			out.PartialEntries += entries
			out.PartialMass += mass
		}
	}
	return out
}

// CapacityUsed returns entries cached per GPU.
func (pl *Placement) CapacityUsed() []int64 {
	used := make([]int64, pl.NumGPUs)
	for _, b := range pl.Blocks {
		for g, s := range b.Store {
			if s {
				used[g] += b.Entries()
			}
		}
	}
	return used
}

// HitStats describes where one GPU's accesses land, as fractions of total
// hotness mass (Fig. 14's local / remote / host split, extended with the
// cluster network tier).
type HitStats struct {
	Local, Remote, Host, Network float64
}

// Stats computes the per-GPU access split under the hotness the placement
// was solved for.
func (pl *Placement) Stats(h workload.Hotness) []HitStats {
	out := make([]HitStats, pl.NumGPUs)
	total := h.Total()
	if total == 0 {
		return out
	}
	host := platform.SourceID(pl.NumGPUs)
	network := platform.SourceID(pl.NumGPUs + 1)
	for _, b := range pl.Blocks {
		mass := 0.0
		for r := b.Start; r < b.End; r++ {
			mass += h[pl.ByRank[r]]
		}
		for i := 0; i < pl.NumGPUs; i++ {
			switch src := b.Access[i]; {
			case src == host:
				out[i].Host += mass
			case src == network:
				out[i].Network += mass
			case int(src) == i:
				out[i].Local += mass
			default:
				out[i].Remote += mass
			}
		}
	}
	inv := 1 / total
	for i := range out {
		out[i].Local *= inv
		out[i].Remote *= inv
		out[i].Host *= inv
		out[i].Network *= inv
	}
	return out
}

// Validate checks the §6.2 invariants: every access points at a source that
// stores the block (or the fallback tier — host, or network on clusters)
// and is reachable; capacities are respected.
func (pl *Placement) Validate(in *Input) error {
	if len(pl.Blocks) == 0 {
		return fmt.Errorf("solver: placement has no blocks")
	}
	host := in.P.Host()
	cluster := in.P.HasNetwork()
	var prevEnd int64
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		if b.Start != prevEnd || b.End <= b.Start {
			return fmt.Errorf("solver: block %d range [%d, %d) does not tile", bi, b.Start, b.End)
		}
		prevEnd = b.End
		if len(b.Store) != pl.NumGPUs || len(b.Access) != pl.NumGPUs {
			return fmt.Errorf("solver: block %d has wrong arity", bi)
		}
		for i := 0; i < pl.NumGPUs; i++ {
			src := b.Access[i]
			if src == host {
				if cluster {
					return fmt.Errorf("solver: block %d gpu %d reads the pruned host tier on a cluster platform", bi, i)
				}
				continue
			}
			if cluster && src == in.P.Network() {
				continue
			}
			j := int(src)
			if j < 0 || j >= pl.NumGPUs {
				return fmt.Errorf("solver: block %d gpu %d reads bad source %d", bi, i, src)
			}
			if !b.Store[j] {
				return fmt.Errorf("solver: block %d gpu %d reads gpu %d which does not store it", bi, i, j)
			}
			if !in.P.Connected(i, j) {
				return fmt.Errorf("solver: block %d gpu %d reads unconnected gpu %d", bi, i, j)
			}
		}
	}
	if prevEnd != int64(len(in.Hotness)) {
		return fmt.Errorf("solver: blocks cover %d of %d entries", prevEnd, len(in.Hotness))
	}
	for g, used := range pl.CapacityUsed() {
		if used > in.Capacity[g] {
			return fmt.Errorf("solver: gpu %d uses %d of %d entries", g, used, in.Capacity[g])
		}
	}
	return nil
}

// Policy is a cache-policy algorithm.
type Policy interface {
	Name() string
	Solve(in *Input) (*Placement, error)
}

// newPlacement builds the shared skeleton from a solve context: the ranking
// is the context's own (placements of one solve share it, and nothing writes
// it after the solve), the entry→block map is filled in one pass over the
// blocks' rank ranges, and Store/Access come from the blocks (which tile the
// rank space) as the policy populated them.
func newPlacement(c *ctx, policy string, blocks []Block) *Placement {
	pl := &Placement{
		Policy:     policy,
		NumGPUs:    c.in.P.N,
		EntryBytes: c.in.EntryBytes,
		ByRank:     c.ranked,
		Blocks:     blocks,
		blockOf:    make([]int32, len(c.ranked)),
		EstTimes:   c.estimate(blocks),
	}
	for bi := range blocks {
		for _, e := range c.ranked[blocks[bi].Start:blocks[bi].End] {
			pl.blockOf[e] = int32(bi)
		}
	}
	return pl
}
