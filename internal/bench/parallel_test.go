package bench

import (
	"sync/atomic"
	"testing"

	"ugache/internal/app"
)

// matrixFigures are the experiments that are renders over memoised reports.
var matrixFigures = []string{
	"fig2", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "summary",
}

// TestParallelRunnerMatchesSequential verifies the pool's contract: every
// matrix figure rendered with concurrent workers is byte-identical to the
// same figure computed report by report as the render reaches it
// (Workers: 1 skips the planning pass and the pool).
func TestParallelRunnerMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figures twice; skipped with -short")
	}
	defer ResetCaches()
	render := func(workers int) map[string]string {
		ResetCaches()
		o := quickOpt()
		o.Workers = workers
		out := map[string]string{}
		for _, name := range matrixFigures {
			res, err := Run(name, o)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, workers, err)
			}
			out[name] = res.Text
		}
		return out
	}
	seq, par := render(1), render(4)
	for _, name := range matrixFigures {
		if seq[name] != par[name] {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				name, seq[name], par[name])
		}
	}
}

// TestReportsAreHistoryFree renders fig4 first on empty memos, and again
// after fig10 and fig16 with nothing reset between the three: a report
// depends on its configuration, not on what ran before it. (The reset
// before fig10 is what makes the second fig4 compute anything at all.)
func TestReportsAreHistoryFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figures; skipped with -short")
	}
	defer ResetCaches()
	// fig4 reads CR and SYN-A on Servers A and C, under Quick too; fig10
	// reads SYN-A on C and fig16 SYN-A on A before the second rendering.
	ResetCaches()
	first, err := Run("fig4", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	ResetCaches()
	for _, name := range []string{"fig10", "fig16"} {
		if _, err := Run(name, quickOpt()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	after, err := Run("fig4", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if first.Text != after.Text {
		t.Fatalf("fig4 after fig10 and fig16 differs from fig4 rendered first\n--- first ---\n%s\n--- after ---\n%s",
			first.Text, after.Text)
	}
}

// TestMatrixRunsEachReportOnce drives the planning pass with a render that
// asks for one configuration twice and checks the pool computed every
// distinct configuration exactly once before the render read any of them.
func TestMatrixRunsEachReportOnce(t *testing.T) {
	defer ResetCaches()
	ResetCaches()
	var runs [3]atomic.Int32
	render := func(o Options) (*Result, error) {
		for _, i := range []int{0, 1, 2, 0} {
			i := i
			rep, err := o.report([]string{"a", "b", "c"}[i], func() (*app.Report, error) {
				runs[i].Add(1)
				return &app.Report{Iterations: i + 1}, nil
			})
			if err != nil {
				return nil, err
			}
			if o.plan == nil && rep.Iterations != i+1 {
				t.Errorf("report %d: the render read %+v", i, rep)
			}
		}
		return &Result{}, nil
	}
	if _, err := matrix(render)(Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Errorf("report %d ran %d times", i, n)
		}
	}
}
