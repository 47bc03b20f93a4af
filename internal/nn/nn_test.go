package nn

import (
	"fmt"
	"math"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
)

func TestLinearForward(t *testing.T) {
	l := &Linear{In: 2, Out: 2, W: []float32{1, 2, 3, 4}, B: []float32{0.5, -0.5}}
	out, err := l.Forward([]float32{1, 1, 2, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Row0: [1*1+1*3+0.5, 1*2+1*4-0.5] = [4.5, 5.5]
	// Row1: [2*1+0.5, 2*2-0.5] = [2.5, 3.5]
	want := []float32{4.5, 5.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-6 {
			t.Fatalf("out = %v", out)
		}
	}
	if _, err := l.Forward([]float32{1}, 2); err == nil {
		t.Fatal("bad shape accepted")
	}
}

func TestLinearReLU(t *testing.T) {
	l := &Linear{In: 1, Out: 1, W: []float32{-1}, B: []float32{0}, ReLU: true}
	out, _ := l.Forward([]float32{5}, 1)
	if out[0] != 0 {
		t.Fatalf("relu failed: %v", out)
	}
}

func TestMLPShapesAndFLOPs(t *testing.T) {
	r := rng.New(1)
	m, err := NewMLP([]int{8, 16, 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 3*8)
	for i := range x {
		x[i] = float32(i) * 0.01
	}
	out, err := m.Forward(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3*4 {
		t.Fatalf("out len %d", len(out))
	}
	wantFLOPs := 2.0 * 3 * (8*16 + 16*4)
	if m.FLOPs(3) != wantFLOPs {
		t.Fatalf("FLOPs %g, want %g", m.FLOPs(3), wantFLOPs)
	}
	if m.Kernels() != 2 {
		t.Fatal("kernels")
	}
	if _, err := NewMLP([]int{4}, r); err == nil {
		t.Fatal("single width accepted")
	}
}

func TestMLPDeterminism(t *testing.T) {
	a, _ := NewMLP([]int{4, 8, 2}, rng.New(3))
	b, _ := NewMLP([]int{4, 8, 2}, rng.New(3))
	x := []float32{1, 2, 3, 4}
	oa, _ := a.Forward(x, 1)
	ob, _ := b.Forward(x, 1)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("nondeterministic init")
		}
	}
}

func TestTimeModel(t *testing.T) {
	tm := TimeModelFor(platform.A100x80)
	// 1 GFLOP at ~10.7 TF effective ≈ 93 µs plus overheads.
	s := tm.Seconds(1e9, 4)
	if s < 50e-6 || s > 300e-6 {
		t.Fatalf("time %g", s)
	}
	v := TimeModelFor(platform.V100x16)
	if v.PeakFLOPs >= tm.PeakFLOPs {
		t.Fatal("V100 should be slower than A100")
	}
	// More kernels cost more.
	if tm.Seconds(0, 10) <= tm.Seconds(0, 1) {
		t.Fatal("kernel overhead missing")
	}
}

func TestDLRM(t *testing.T) {
	r := rng.New(7)
	m, err := NewDLRM(26, 16, r)
	if err != nil {
		t.Fatal(err)
	}
	rows := 4
	dense := make([]float32, rows*13)
	embs := make([]float32, rows*26*16)
	for i := range dense {
		dense[i] = 0.1
	}
	for i := range embs {
		embs[i] = 0.01
	}
	out, err := m.Forward(dense, embs, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != rows {
		t.Fatalf("out len %d", len(out))
	}
	for _, p := range out {
		if p <= 0 || p >= 1 || math.IsNaN(float64(p)) {
			t.Fatalf("probability %v", p)
		}
	}
	if m.FLOPs(rows) <= 0 || m.Kernels() <= 0 {
		t.Fatal("costs missing")
	}
	if _, err := m.Forward(dense[:1], embs, rows); err == nil {
		t.Fatal("bad dense accepted")
	}
	if _, err := NewDLRM(0, 16, r); err == nil {
		t.Fatal("bad shape accepted")
	}
}

func TestDCN(t *testing.T) {
	r := rng.New(9)
	m, err := NewDCN(10, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	rows := 3
	dense := make([]float32, rows*13)
	embs := make([]float32, rows*10*8)
	for i := range embs {
		embs[i] = 0.02
	}
	out, err := m.Forward(dense, embs, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != rows {
		t.Fatal("out len")
	}
	for _, p := range out {
		if p <= 0 || p >= 1 {
			t.Fatalf("probability %v", p)
		}
	}
	// DCN adds cross layers on top of a deep tower: FLOPs above the deep
	// tower alone.
	if m.FLOPs(rows) <= m.Deep.FLOPs(rows) {
		t.Fatal("cross FLOPs missing")
	}
}

// forwardFlat runs g's dense transforms over a flattened frontier where each
// node's "neighbourhood mean" is supplied directly: the numeric path without
// a message-passing engine.
func forwardFlat(g *GNN, x []float32, rows int) ([]float32, error) {
	var err error
	for i, l := range g.Layers {
		in := x
		if g.Model == "sage" {
			// Self features stand in for the aggregated neighbourhood.
			dim := len(x) / rows
			cat := make([]float32, rows*dim*2)
			for r := 0; r < rows; r++ {
				copy(cat[r*dim*2:], x[r*dim:(r+1)*dim])
				copy(cat[r*dim*2+dim:], x[r*dim:(r+1)*dim])
			}
			in = cat
		}
		x, err = l.Lin.Forward(in, rows)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return x, nil
}

func TestGNN(t *testing.T) {
	r := rng.New(11)
	g, err := NewGNN("sage", []int{32, 64, 8}, r)
	if err != nil {
		t.Fatal(err)
	}
	rows := 5
	x := make([]float32, rows*32)
	for i := range x {
		x[i] = 0.05
	}
	out, err := forwardFlat(g, x, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != rows*8 {
		t.Fatalf("out len %d", len(out))
	}
	// FLOPs grow with frontier sizes; more nodes in the inner hop cost
	// more.
	small := g.FLOPs([]int{100, 10})
	big := g.FLOPs([]int{10000, 10})
	if big <= small {
		t.Fatal("FLOPs insensitive to frontier")
	}
	if _, err := NewGNN("transformer", []int{4, 2}, r); err == nil {
		t.Fatal("unknown model accepted")
	}
	gcn, err := NewGNN("gcn", []int{16, 8, 4, 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(gcn.Layers) != 3 {
		t.Fatal("gcn depth")
	}
	if _, err := forwardFlat(gcn, make([]float32, 2*16), 2); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	x := []float32{0, 100, -100}
	Sigmoid(x)
	if math.Abs(float64(x[0])-0.5) > 1e-6 || x[1] < 0.999 || x[2] > 0.001 {
		t.Fatalf("sigmoid %v", x)
	}
}
