package app

import (
	"testing"

	"ugache/internal/platform"
)

// denseRow is one model's dense price, pinned bit for bit to the values every
// figure was produced with.
type denseRow struct {
	name       string
	cost       func() (float64, int)
	flops      float64
	kernels    int
	a100, v100 float64
}

// checkDenseRows holds each row's FLOPs, kernels and seconds on A100 and
// V100 with exact float equality, and V100 slower than A100.
func checkDenseRows(t *testing.T, rows []denseRow) {
	t.Helper()
	a100, v100 := platform.A100x80, platform.V100x16
	for _, c := range rows {
		flops, kernels := c.cost()
		if flops != c.flops || kernels != c.kernels {
			t.Errorf("%s: %v flops over %d kernels, want %v over %d", c.name, flops, kernels, c.flops, c.kernels)
		}
		a, v := denseSeconds(a100, flops, kernels), denseSeconds(v100, flops, kernels)
		if a != c.a100 || v != c.v100 {
			t.Errorf("%s: %v s on A100, %v s on V100, want %v and %v", c.name, a, v, c.a100, c.v100)
		}
		if v <= a {
			t.Errorf("%s: V100 (%v s) not slower than A100 (%v s)", c.name, v, a)
		}
	}
}

// TestDLRMCost pins DLRM at batch 8192 over 26 and 100 tables of dim 128.
func TestDLRMCost(t *testing.T) {
	checkDenseRows(t, []denseRow{
		{"dlrm 26x128", func() (float64, int) { return dlrmCost(8192, 26, 128) }, 2.2307405824e+10, 8, 0.002143944598974359, 0.003237453053644728},
		{"dlrm 100x128", func() (float64, int) { return dlrmCost(8192, 100, 128) }, 1.10998061056e+11, 8, 0.010413469562331003, 0.015790978210332627},
	})
}

// TestDCNCost pins DCN at batch 8192 over 26 and 100 tables of dim 128, and
// holds its cross layers on top of its deep tower.
func TestDCNCost(t *testing.T) {
	checkDenseRows(t, []denseRow{
		{"dcn 26x128", func() (float64, int) { return dcnCost(8192, 26, 128) }, 6.7177463808e+10, 11, 0.006351632989090909, 0.009618487446284503},
		{"dcn 100x128", func() (float64, int) { return dcnCost(8192, 100, 128) }, 2.27177578496e+11, 11, 0.021270058601025644, 0.03226535435187544},
	})
	if f, _ := dcnCost(3, 10, 8); f <= mlpFLOPs(3, 13+10*8, 1024, 512, 256) {
		t.Errorf("DCN at %v flops: cross layers missing", f)
	}
}

// TestGNNCost pins GraphSAGE and GCN over dim 128 at two frontiers, and
// holds their FLOPs growing with the frontier.
func TestGNNCost(t *testing.T) {
	dims := []int{128, gnnHidden, gnnHidden}
	small, big := []int{8192, 1000}, []int{200000, 8192}
	checkDenseRows(t, []denseRow{
		{"sage small", func() (float64, int) { return gnnCost(true, dims, small) }, 4.007657472e+09, 10, 0.00045367435636363635, 0.0006672551269639067},
		{"sage big", func() (float64, int) { return gnnCost(true, dims, big) }, 8.5085650944e+10, 10, 0.008013394027412588, 0.0121432626955414},
		{"gcn small", func() (float64, int) { return gnnCost(false, dims, small) }, 2.003828736e+09, 10, 0.00026683717818181817, 0.0003836275634819533},
		{"gcn big", func() (float64, int) { return gnnCost(false, dims, big) }, 4.2542825472e+10, 10, 0.004046697013706294, 0.006121631347770701},
	})
	for _, sage := range []bool{true, false} {
		lo, _ := gnnCost(sage, dims, []int{100, 10})
		hi, _ := gnnCost(sage, dims, []int{10000, 10})
		if hi <= lo {
			t.Errorf("sage=%v: FLOPs do not grow with the frontier", sage)
		}
	}
}

// TestMLPFLOPs holds an MLP's FLOPs to two per multiply-add of each layer.
func TestMLPFLOPs(t *testing.T) {
	if got, want := mlpFLOPs(3, 8, 16, 4), 2.0*3*(8*16+16*4); got != want {
		t.Errorf("mlpFLOPs = %v, want %v", got, want)
	}
}

// TestTimeModel holds the time model's scale, its GPU order and its launch
// cost.
func TestTimeModel(t *testing.T) {
	a100, v100 := platform.A100x80, platform.V100x16
	// 1 GFLOP at about 10.7 TFLOP/s effective is about 93 µs, plus launches.
	if s := denseSeconds(a100, 1e9, 4); s < 50e-6 || s > 300e-6 {
		t.Errorf("1 GFLOP over 4 kernels on A100: %v s", s)
	}
	if a, v := denseSeconds(a100, 1e9, 4), denseSeconds(v100, 1e9, 4); v <= a {
		t.Errorf("1 GFLOP: V100 (%v s) not slower than A100 (%v s)", v, a)
	}
	if denseSeconds(a100, 0, 10) <= denseSeconds(a100, 0, 1) {
		t.Error("more kernels cost no more")
	}
}
