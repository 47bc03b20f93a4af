package app

import "ugache/internal/platform"

// The dense part of an iteration (the "MLP" row of Table 1 and the
// non-embedding part of every end-to-end figure) is priced, not computed:
// FLOPs from the layer widths of the paper's models (§8.1) over the GPU's
// effective throughput, plus a fixed cost per kernel launch.

// a100DenseEfficiency and v100DenseEfficiency are the shares of peak fp32
// throughput the dense kernels achieve (EXPERIMENTS.md, Known deviations).
const (
	a100DenseEfficiency = 0.55
	v100DenseEfficiency = 0.45
)

// denseSeconds prices flops spread over the given number of kernel launches
// on a GPU: the flops over its effective fp32 throughput (peak × efficiency)
// plus a fixed cost per launch.
func denseSeconds(g platform.GPUModel, flops float64, kernels int) float64 {
	peak, efficiency, launch := 15.7e12, v100DenseEfficiency, 10e-6 // V100 class
	if g.Name == platform.A100x80.Name {
		peak, efficiency, launch = 19.5e12, a100DenseEfficiency, 8e-6
	}
	return flops/(peak*efficiency) + float64(kernels)*launch
}

// linearFLOPs is one dense layer's forward cost over rows inputs.
func linearFLOPs(rows, in, out int) float64 {
	return 2 * float64(rows) * float64(in) * float64(out)
}

// mlpFLOPs is the forward cost of the layers between consecutive widths,
// one kernel each.
func mlpFLOPs(rows int, widths ...int) float64 {
	f := 0.0
	for i := 0; i+1 < len(widths); i++ {
		f += linearFLOPs(rows, widths[i], widths[i+1])
	}
	return f
}

// dlrmCost prices one DLRM forward batch over tables embedding vectors of
// dim per sample: a bottom MLP 13→512→256→dim over the dense features, the
// pairwise dots among the bottom output and the vectors, and a top MLP over
// those dots and the bottom output →1024→512→256→1.
func dlrmCost(rows, tables, dim int) (flops float64, kernels int) {
	pairs := (tables + 1) * tables / 2
	flops = mlpFLOPs(rows, 13, 512, 256, dim) + mlpFLOPs(rows, pairs+dim, 1024, 512, 256, 1)
	flops += 2 * float64(rows) * float64(pairs) * float64(dim)
	return flops, 3 + 4 + 1
}

// dcnCost prices one DCN v1 forward batch: three cross layers (a dot and an
// update, two kernels each) and a deep MLP →1024→512→256 over the dense
// features concatenated with the vectors, and one output layer over both
// towers.
func dcnCost(rows, tables, dim int) (flops float64, kernels int) {
	in := 13 + tables*dim
	flops = mlpFLOPs(rows, in, 1024, 512, 256) + linearFLOPs(rows, in+256, 1)
	for i := 0; i < 3; i++ {
		flops += linearFLOPs(rows, in, 1) + 2*float64(rows)*float64(in)
	}
	return flops, 3 + 3*2 + 2
}

// gnnCost prices one training iteration (forward + backward ≈ 3× forward)
// of a GNN whose layer l maps dims[l] to dims[l+1] over nodes[l] nodes.
// GraphSAGE concatenates each node with its neighbours' mean, doubling the
// layer's input; each layer launches 5 kernels (aggregate, matmul and
// backward).
func gnnCost(sage bool, dims, nodes []int) (flops float64, kernels int) {
	layers := len(dims) - 1
	for l := 0; l < layers; l++ {
		in := dims[l]
		if sage {
			in *= 2
		}
		flops += linearFLOPs(nodes[l], in, dims[l+1])
	}
	return 3 * flops, layers * 5
}
