package parafac2

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Edge-case and failure-injection tests for the decomposers.

// assertFiniteOrthonormalQ checks the invariants a degenerate input must not
// break: every factor entry is finite and every Q_k has orthonormal columns
// within 1e-10. The degenerate cases give singular Q-update inputs M_k,
// whose polar factor is not unique, so the iteration may pick any valid one
// — but it must pick an orthogonal one.
func assertFiniteOrthonormalQ(t *testing.T, res *Result) {
	t.Helper()
	finite := func(what string, xs []float64) {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite entry %v in %s", x, what)
			}
		}
	}
	finite("H", res.H.Data)
	finite("V", res.V.Data)
	for k := 0; k < res.K(); k++ {
		finite("S_k", res.S[k])
		q := res.Qk(k)
		finite("Q_k", q.Data)
		if !q.IsOrthonormalCols(1e-10) {
			t.Fatalf("Q_%d lost orthonormality", k)
		}
	}
}

func TestSingleSliceTensor(t *testing.T) {
	// K=1 degenerates PARAFAC2 to a matrix factorization; everything must
	// still work.
	g := rng.New(1)
	ten := synthPARAFAC2(g, []int{40}, 12, 3, 0)
	for _, m := range []struct {
		name string
		run  func(*tensor.Irregular, Config) (*Result, error)
	}{{"DPar2", DPar2}, {"ALS", ALS}, {"RDALS", RDALS}, {"SPARTan", SPARTan}} {
		res, err := m.run(ten, smallConfig(3))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.Fitness < 0.99 {
			t.Fatalf("%s: fitness %v on single exact slice", m.name, res.Fitness)
		}
	}
}

func TestRankOne(t *testing.T) {
	g := rng.New(2)
	ten := synthPARAFAC2(g, []int{30, 40, 35}, 10, 1, 0)
	res, err := DPar2(ten, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("rank-1 fitness %v", res.Fitness)
	}
	if res.V.Cols != 1 || res.H.Rows != 1 {
		t.Fatal("rank-1 factor shapes wrong")
	}
}

func TestRankEqualsJ(t *testing.T) {
	// R = J: compression cannot shrink the column space, but the method
	// must remain correct.
	g := rng.New(3)
	j := 6
	ten := synthPARAFAC2(g, []int{30, 40, 25}, j, 4, 0.05)
	cfg := smallConfig(j)
	cfg.MaxIters = 60
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.95 {
		t.Fatalf("R=J fitness %v", res.Fitness)
	}
}

func TestSliceExactlyRankRows(t *testing.T) {
	// The smallest legal slices: I_k = R.
	g := rng.New(4)
	r := 3
	ten := synthPARAFAC2(g, []int{r, r + 1, 20}, 8, r, 0)
	res, err := DPar2(ten, smallConfig(r))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < res.K(); k++ {
		if !res.Qk(k).IsOrthonormalCols(1e-7) {
			t.Fatalf("Q_%d lost orthonormality with minimal rows", k)
		}
	}
}

func TestConstantSlices(t *testing.T) {
	// Rank-deficient input: all-equal entries (rank 1 with identical
	// singular vectors). Methods must not NaN out.
	slices := []*mat.Dense{
		mat.NewFromFunc(20, 8, func(i, j int) float64 { return 2.5 }),
		mat.NewFromFunc(30, 8, func(i, j int) float64 { return 2.5 }),
	}
	ten := tensor.MustIrregular(slices)
	cfg := smallConfig(2)
	cfg.MaxIters = 10
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Fitness) {
		t.Fatal("fitness is NaN on constant data")
	}
	if res.Fitness < 0.99 {
		t.Fatalf("constant tensor should be perfectly fit, got %v", res.Fitness)
	}
}

func TestZeroSlicePresent(t *testing.T) {
	// One all-zero slice among normal ones: degenerate SVDs inside the
	// pipeline must be handled. Under NonnegativeS the zero slice's weights
	// are clamped to exactly zero, which zeroes its M_k outright.
	g := rng.New(5)
	ten := synthPARAFAC2(g, []int{25, 30}, 10, 2, 0)
	zero := mat.New(15, 10)
	mixed := tensor.MustIrregular(append(append([]*mat.Dense{}, ten.Slices...), zero))
	for _, nonneg := range []bool{false, true} {
		cfg := smallConfig(2)
		cfg.MaxIters = 15
		cfg.NonnegativeS = nonneg
		res, err := DPar2(mixed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.Fitness) || math.IsInf(res.Fitness, 0) {
			t.Fatalf("non-finite fitness %v with a zero slice (NonnegativeS=%v)", res.Fitness, nonneg)
		}
		assertFiniteOrthonormalQ(t, res)
		if nonneg && !slices.Contains(res.S[2], 0) {
			t.Fatalf("no weight of the zero slice was clamped to zero: %v", res.S[2])
		}
	}
}

func TestDuplicateSlices(t *testing.T) {
	// Every slice appears twice: the duplicated Q-update inputs must give
	// equally valid (orthogonal) factors and an unharmed fit.
	g := rng.New(12)
	ten := synthPARAFAC2(g, []int{25, 30, 35}, 10, 3, 0.01)
	var slices []*mat.Dense
	for _, s := range ten.Slices {
		slices = append(slices, s, s.Clone())
	}
	cfg := smallConfig(3)
	cfg.MaxIters = 40
	res, err := DPar2(tensor.MustIrregular(slices), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertFiniteOrthonormalQ(t, res)
	if res.Fitness < 0.95 {
		t.Fatalf("duplicate-slice fitness %v", res.Fitness)
	}
}

func TestCollinearColumnsNoRidge(t *testing.T) {
	// Column rank 2 fitted at a higher rank with no ridge: column j of every
	// slice is a multiple of one of two base columns, so every M_k is
	// singular, with up to R−2 zero singular values to complete.
	for _, r := range []int{3, 16} {
		g := rng.New(13)
		var slices []*mat.Dense
		for _, rows := range []int{20, 30, 25} {
			a := mat.Gaussian(g, rows, 1)
			b := mat.Gaussian(g, rows, 1)
			slices = append(slices, mat.NewFromFunc(rows, 18, func(i, j int) float64 {
				if j%2 == 0 {
					return float64(j+1) * a.At(i, 0)
				}
				return float64(j+1) * b.At(i, 0)
			}))
		}
		cfg := smallConfig(r)
		cfg.Ridge = 0
		cfg.MaxIters = 40
		res, err := DPar2(tensor.MustIrregular(slices), cfg)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		assertFiniteOrthonormalQ(t, res)
		if res.Fitness < 0.99 {
			t.Fatalf("R=%d: collinear-column fitness %v", r, res.Fitness)
		}
	}
}

func TestHugeValueScale(t *testing.T) {
	// Numerical robustness: entries around 1e8 must not break the Jacobi
	// SVD or the Gram-based convergence check.
	g := rng.New(6)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	for _, s := range ten.Slices {
		s.ScaleInPlace(1e8)
	}
	res, err := DPar2(ten, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("large-scale data fitness %v", res.Fitness)
	}
}

func TestTinyValueScale(t *testing.T) {
	g := rng.New(7)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	for _, s := range ten.Slices {
		s.ScaleInPlace(1e-8)
	}
	res, err := DPar2(ten, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("small-scale data fitness %v", res.Fitness)
	}
}

func TestManyTinySlices(t *testing.T) {
	// Large K with small I_k: the K R³ iteration term dominates; exercises
	// the per-slice bookkeeping paths.
	g := rng.New(8)
	rows := make([]int, 120)
	for i := range rows {
		rows[i] = 5 + g.Intn(10)
	}
	ten := synthPARAFAC2(g, rows, 12, 3, 0.01)
	cfg := smallConfig(3)
	cfg.MaxIters = 25
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.9 {
		t.Fatalf("many-slice fitness %v", res.Fitness)
	}
	if res.K() != 120 || len(res.S) != 120 {
		t.Fatal("per-slice outputs incomplete")
	}
}

func TestThreadsExceedSlices(t *testing.T) {
	g := rng.New(9)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	cfg := smallConfig(2)
	cfg.Threads = 64
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < 0.99 {
		t.Fatalf("fitness %v with threads >> K", res.Fitness)
	}
}

func TestZeroThreadsClampsToOne(t *testing.T) {
	g := rng.New(10)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0)
	cfg := smallConfig(2)
	cfg.Threads = 0
	if _, err := DPar2(ten, cfg); err != nil {
		t.Fatalf("Threads=0 should clamp, got %v", err)
	}
	cfg.Threads = -5
	if _, err := ALS(ten, cfg); err != nil {
		t.Fatalf("negative Threads should clamp, got %v", err)
	}
}

func TestMaxIters1(t *testing.T) {
	g := rng.New(11)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0.1)
	cfg := smallConfig(2)
	cfg.MaxIters = 1
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 {
		t.Fatalf("ran %d iterations, want 1", res.Iters)
	}
}

func TestNonnegativeSConstraint(t *testing.T) {
	g := rng.New(30)
	ten := synthPARAFAC2(g, irregRows(g, 6, 30, 70), 15, 3, 0.1)
	cfg := smallConfig(3)
	cfg.NonnegativeS = true
	for _, m := range []struct {
		name string
		run  func(*tensor.Irregular, Config) (*Result, error)
	}{{"DPar2", DPar2}, {"ALS", ALS}} {
		res, err := m.run(ten, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for k, s := range res.S {
			for _, v := range s {
				if v < 0 {
					t.Fatalf("%s: negative weight in S_%d: %v", m.name, k, v)
				}
			}
		}
		if res.Fitness < 0.8 {
			t.Fatalf("%s: constrained fitness collapsed to %v", m.name, res.Fitness)
		}
	}
}

func TestRidgeStabilizes(t *testing.T) {
	g := rng.New(31)
	ten := synthPARAFAC2(g, irregRows(g, 5, 30, 60), 12, 3, 0.05)
	cfg := smallConfig(3)
	cfg.Ridge = 1e-8
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := smallConfig(3)
	base, err := DPar2(ten, plain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness < base.Fitness-0.01 {
		t.Fatalf("tiny ridge cost too much fitness: %v vs %v", res.Fitness, base.Fitness)
	}
}

func TestProgressCallback(t *testing.T) {
	g := rng.New(32)
	ten := synthPARAFAC2(g, []int{30, 40}, 10, 2, 0.1)
	cfg := smallConfig(2)
	cfg.MaxIters = 20
	cfg.Tol = 0 // disable tol stopping; the callback drives termination
	var calls []int
	cfg.Progress = func(iter int, measure float64) bool {
		calls = append(calls, iter)
		if measure < 0 {
			t.Errorf("negative convergence measure %v", measure)
		}
		return iter < 5 // stop after 5 iterations
	}
	res, err := DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 5 {
		t.Fatalf("ran %d iterations, want 5 (callback-stopped)", res.Iters)
	}
	for i, c := range calls {
		if c != i+1 {
			t.Fatalf("callback iteration sequence wrong: %v", calls)
		}
	}
	// ALS path honors the callback too.
	calls = nil
	if _, err := ALS(ten, cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 {
		t.Fatalf("ALS made %d callback calls, want 5", len(calls))
	}
}
