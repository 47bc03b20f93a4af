package graph

import (
	"fmt"

	"ugache/internal/emb"
	"ugache/internal/rng"
)

// DatasetSpec describes a scaled stand-in for one of the paper's GNN
// datasets (Table 3). Node counts are scaled down from the originals
// (111M/65.6M/232M) by Scale while preserving embedding dimension, dtype,
// degree shape, and the train-set fraction, so cache *ratios* and access
// *skew* — the quantities every figure sweeps — are comparable.
type DatasetSpec struct {
	Name      string
	BaseNodes int     // nodes at Scale = 1
	AvgDeg    float64 // average out-degree
	Gamma     float64 // power-law degree exponent
	Dim       int
	DType     emb.DType
	TrainFrac float64
}

// The paper's three GNN datasets (Table 3). BaseNodes are 1/100 of the real
// vertex counts: large enough to show the long-tail effects, small enough
// to regenerate in seconds.
var (
	// PA stands in for OGB-Papers100M: highly skewed citation network.
	PA = DatasetSpec{Name: "PA", BaseNodes: 1_110_000, AvgDeg: 12, Gamma: 2.2,
		Dim: 128, DType: emb.Float32, TrainFrac: 0.011}
	// CF stands in for Com-Friendster: social network, lower skew.
	CF = DatasetSpec{Name: "CF", BaseNodes: 656_000, AvgDeg: 16, Gamma: 2.9,
		Dim: 256, DType: emb.Float32, TrainFrac: 0.01}
	// MAG stands in for MAG240M: the largest table, float16 embeddings.
	MAG = DatasetSpec{Name: "MAG", BaseNodes: 2_320_000, AvgDeg: 6, Gamma: 2.4,
		Dim: 768, DType: emb.Float16, TrainFrac: 0.005}
)

// GNNDatasets lists the stock specs in the paper's presentation order.
var GNNDatasets = []DatasetSpec{PA, CF, MAG}

// Dataset is a generated graph plus its embedding table and train split.
type Dataset struct {
	Spec  DatasetSpec
	G     *CSR
	Table *emb.Table
	Train []int32
}

// Build generates the dataset at the given scale (nodes = BaseNodes*scale,
// minimum 1000). Generation is deterministic in (spec, scale, seed).
func (s DatasetSpec) Build(scale float64, seed uint64) (*Dataset, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("graph: scale must be positive, got %g", scale)
	}
	n := int(float64(s.BaseNodes) * scale)
	if n < 1000 {
		n = 1000
	}
	r := rng.New(seed).Split("dataset-" + s.Name)
	g, err := genPowerLaw(n, s.AvgDeg, s.Gamma, r.Split("graph"))
	if err != nil {
		return nil, err
	}
	table, err := emb.New(s.Name, int64(n), s.Dim, s.DType, seed^0x5eed)
	if err != nil {
		return nil, err
	}
	train := trainSet(n, s.TrainFrac, r.Split("train"))
	return &Dataset{Spec: s, G: g, Table: table, Train: train}, nil
}

// VolumeE returns the embedding data volume in bytes (Table 3's VolumeE).
func (d *Dataset) VolumeE() int64 { return d.Table.TotalBytes() }

// VolumeG returns the topological data volume in bytes (Table 3's VolumeG):
// CSR indptr + indices.
func (d *Dataset) VolumeG() int64 {
	return int64(len(d.G.IndPtr))*8 + int64(len(d.G.Indices))*4
}
