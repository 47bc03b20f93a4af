package nn

import (
	"fmt"

	"ugache/internal/rng"
)

// DLRM is the dense portion of the Deep Learning Recommendation Model
// (paper §8.1: six MLP layers plus the embedding layer): a bottom MLP over
// dense features, pairwise dot-product feature interaction between the
// bottom output and the embedding vectors, and a top MLP ending in a
// click-probability logit.
type DLRM struct {
	NumTables int // embedding vectors per sample
	EmbDim    int
	Bottom    *MLP
	Top       *MLP
}

// NewDLRM follows the HPS settings the paper cites: bottom 13→512→256→dim,
// top over interactions →1024→512→256→1.
func NewDLRM(numTables, embDim int, r *rng.Rand) (*DLRM, error) {
	if numTables < 1 || embDim < 1 {
		return nil, fmt.Errorf("nn: bad DLRM shape %d×%d", numTables, embDim)
	}
	bottom, err := NewMLP([]int{13, 512, 256, embDim}, r.Split("bottom"))
	if err != nil {
		return nil, err
	}
	// Interaction features: pairwise dots among numTables+1 vectors plus
	// the bottom output itself.
	f := numTables + 1
	interDim := f*(f-1)/2 + embDim
	top, err := NewMLP([]int{interDim, 1024, 512, 256, 1}, r.Split("top"))
	if err != nil {
		return nil, err
	}
	return &DLRM{NumTables: numTables, EmbDim: embDim, Bottom: bottom, Top: top}, nil
}

// Forward computes click probabilities for a batch. dense is rows×13;
// embs is rows×NumTables×EmbDim (the embedding layer's output).
func (m *DLRM) Forward(dense, embs []float32, rows int) ([]float32, error) {
	if len(dense) != rows*13 {
		return nil, fmt.Errorf("nn: dense input %d != %d×13", len(dense), rows)
	}
	if len(embs) != rows*m.NumTables*m.EmbDim {
		return nil, fmt.Errorf("nn: embedding input %d != %d×%d×%d", len(embs), rows, m.NumTables, m.EmbDim)
	}
	bot, err := m.Bottom.Forward(dense, rows)
	if err != nil {
		return nil, err
	}
	f := m.NumTables + 1
	interDim := f*(f-1)/2 + m.EmbDim
	inter := make([]float32, rows*interDim)
	vec := func(r, t int) []float32 {
		if t == 0 {
			return bot[r*m.EmbDim : (r+1)*m.EmbDim]
		}
		base := (r*m.NumTables + (t - 1)) * m.EmbDim
		return embs[base : base+m.EmbDim]
	}
	for r := 0; r < rows; r++ {
		o := inter[r*interDim:]
		k := 0
		for a := 0; a < f; a++ {
			va := vec(r, a)
			for b := a + 1; b < f; b++ {
				vb := vec(r, b)
				dot := float32(0)
				for i := range va {
					dot += va[i] * vb[i]
				}
				o[k] = dot
				k++
			}
		}
		copy(o[k:interDim], bot[r*m.EmbDim:(r+1)*m.EmbDim])
	}
	out, err := m.Top.Forward(inter, rows)
	if err != nil {
		return nil, err
	}
	Sigmoid(out)
	return out, nil
}

// FLOPs prices one forward batch.
func (m *DLRM) FLOPs(rows int) float64 {
	f := m.Bottom.FLOPs(rows) + m.Top.FLOPs(rows)
	pairs := (m.NumTables + 1) * m.NumTables / 2
	f += 2 * float64(rows) * float64(pairs) * float64(m.EmbDim)
	return f
}

// Kernels returns the launch count per forward batch.
func (m *DLRM) Kernels() int { return m.Bottom.Kernels() + m.Top.Kernels() + 1 }

// DCN is Deep & Cross Network v1 (paper §8.1: DLRM's MLP stack plus a
// Cross layer stack, following the TensorFlow example settings).
type DCN struct {
	NumTables int
	EmbDim    int
	CrossW    []*Linear // cross layers share the concat dim
	Deep      *MLP
	Out       *Linear
	inDim     int
}

// NewDCN builds a 3-cross-layer, 3-deep-layer DCN.
func NewDCN(numTables, embDim int, r *rng.Rand) (*DCN, error) {
	if numTables < 1 || embDim < 1 {
		return nil, fmt.Errorf("nn: bad DCN shape %d×%d", numTables, embDim)
	}
	inDim := 13 + numTables*embDim
	m := &DCN{NumTables: numTables, EmbDim: embDim, inDim: inDim}
	for i := 0; i < 3; i++ {
		m.CrossW = append(m.CrossW, NewLinear(inDim, 1, false, r.Split(fmt.Sprintf("cross%d", i))))
	}
	deep, err := NewMLP([]int{inDim, 1024, 512, 256}, r.Split("deep"))
	if err != nil {
		return nil, err
	}
	m.Deep = deep
	m.Out = NewLinear(inDim+256, 1, false, r.Split("out"))
	return m, nil
}

// Forward computes click probabilities; inputs as in DLRM.Forward but the
// embeddings are concatenated with the dense features.
func (m *DCN) Forward(dense, embs []float32, rows int) ([]float32, error) {
	if len(dense) != rows*13 || len(embs) != rows*m.NumTables*m.EmbDim {
		return nil, fmt.Errorf("nn: bad DCN inputs")
	}
	x0 := make([]float32, rows*m.inDim)
	for r := 0; r < rows; r++ {
		copy(x0[r*m.inDim:], dense[r*13:(r+1)*13])
		copy(x0[r*m.inDim+13:], embs[r*m.NumTables*m.EmbDim:(r+1)*m.NumTables*m.EmbDim])
	}
	// Cross tower: x_{k+1} = x0 * (x_k·w) + b + x_k.
	xk := append([]float32(nil), x0...)
	for _, cw := range m.CrossW {
		s, err := cw.Forward(xk, rows) // rows×1
		if err != nil {
			return nil, err
		}
		for r := 0; r < rows; r++ {
			sr := s[r]
			for i := 0; i < m.inDim; i++ {
				xk[r*m.inDim+i] = x0[r*m.inDim+i]*sr + xk[r*m.inDim+i]
			}
		}
	}
	deep, err := m.Deep.Forward(x0, rows)
	if err != nil {
		return nil, err
	}
	// Concat cross and deep towers.
	cat := make([]float32, rows*(m.inDim+256))
	for r := 0; r < rows; r++ {
		copy(cat[r*(m.inDim+256):], xk[r*m.inDim:(r+1)*m.inDim])
		copy(cat[r*(m.inDim+256)+m.inDim:], deep[r*256:(r+1)*256])
	}
	out, err := m.Out.Forward(cat, rows)
	if err != nil {
		return nil, err
	}
	Sigmoid(out)
	return out, nil
}

// FLOPs prices one forward batch.
func (m *DCN) FLOPs(rows int) float64 {
	f := m.Deep.FLOPs(rows) + m.Out.FLOPs(rows)
	for _, cw := range m.CrossW {
		f += cw.FLOPs(rows) + 2*float64(rows)*float64(m.inDim)
	}
	return f
}

// Kernels returns the launch count per forward batch.
func (m *DCN) Kernels() int { return m.Deep.Kernels() + len(m.CrossW)*2 + 2 }

// SAGELayer is one GraphSAGE convolution: h' = ReLU(W·[h ‖ mean(h_N)]).
type SAGELayer struct {
	Lin *Linear
}

// GNN is a sampled GNN model (GraphSAGE or GCN): per layer, neighbour
// aggregation plus a dense transform over every node in the layer's
// frontier. For timing purposes the node counts per hop dominate; the
// functional path operates on a flattened mini-batch.
type GNN struct {
	Model  string // "gcn" or "sage"
	Dims   []int  // e.g. {featDim, 256, numClasses}
	Layers []*SAGELayer
}

// NewGNN builds the model; dims[0] is the embedding dimension.
func NewGNN(model string, dims []int, r *rng.Rand) (*GNN, error) {
	if model != "gcn" && model != "sage" {
		return nil, fmt.Errorf("nn: unknown GNN model %q", model)
	}
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: GNN needs at least two dims")
	}
	g := &GNN{Model: model, Dims: dims}
	for i := 0; i+1 < len(dims); i++ {
		in := dims[i]
		if model == "sage" {
			in *= 2 // concat(self, mean(neighbours))
		}
		g.Layers = append(g.Layers, &SAGELayer{
			Lin: NewLinear(in, dims[i+1], i+2 < len(dims), r.Split(fmt.Sprintf("conv%d", i))),
		})
	}
	return g, nil
}

// FLOPs prices one training iteration (forward + backward ≈ 3× forward)
// given the node count entering each layer (hop frontier sizes, innermost
// first: nodesPerHop[0] feeds layer 0).
func (g *GNN) FLOPs(nodesPerHop []int) float64 {
	f := 0.0
	for i, l := range g.Layers {
		nodes := 0
		if i < len(nodesPerHop) {
			nodes = nodesPerHop[i]
		}
		f += l.Lin.FLOPs(nodes)
	}
	return 3 * f
}

// Kernels returns the launch count per iteration (aggregate + matmul +
// backward per layer).
func (g *GNN) Kernels() int { return len(g.Layers) * 5 }
