package lapack

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// polarOf factors a with FactorInto and returns its factors plus the polar
// factor U Vᵀ.
func polarOf(a *mat.Dense) (u *mat.Dense, s []float64, v, polar *mat.Dense) {
	n := a.Cols
	u, s, v = mat.New(a.Rows, n), make([]float64, n), mat.New(n, n)
	FactorInto(a, u, s, v, nil)
	return u, s, v, u.MulT(v)
}

// TestWarmRotatedFactorGivesColdPolarFactor pins the identity the DPar2
// Q-update warm start rests on: for any orthogonal P, factoring M·P =
// Z Σ V'ᵀ gives Z (P V')ᵀ = the polar factor of M, the same one a cold
// FactorInto(M) yields. The match is checked to 1e-12 for well-conditioned
// M (σ_min/σ_max > 1e-8); a rank-deficient M has no unique polar factor, so
// there only the orthogonality of Z and P V' is asserted.
func TestWarmRotatedFactorGivesColdPolarFactor(t *testing.T) {
	g := rng.New(77)
	for _, r := range []int{3, 10, 16} {
		for trial := 0; trial < 20; trial++ {
			t.Run(fmt.Sprintf("R%d/%d", r, trial), func(t *testing.T) {
				m := mat.Gaussian(g, r, r)
				deficient := trial%5 == 4
				if deficient {
					m.SetCol(r-1, m.Col(0)) // duplicated column: rank R-1
					m.SetCol(1, make([]float64, r))
				}
				pu, _, _, _ := polarOf(mat.Gaussian(g, r, r))
				p := pu // random orthogonal R×R

				_, s, _, cold := polarOf(m)
				z, _, vw, _ := polarOf(m.Mul(p))
				pv := p.Mul(vw)
				if !z.IsOrthonormalCols(1e-11) || !pv.IsOrthonormalCols(1e-11) {
					t.Fatalf("Z or P·V' lost orthogonality (rank-deficient=%v)", deficient)
				}
				if deficient {
					return
				}
				if s[r-1]/s[0] <= 1e-8 {
					t.Skipf("ill-conditioned draw: σ_min/σ_max = %.3g", s[r-1]/s[0])
				}
				// The polar factor moves by about ‖ΔM‖/σ_min under a
				// perturbation ΔM, and forming M·P perturbs M by a few
				// ulps of ‖M‖; 1e-12 covers the Jacobi stopping tolerance.
				cond := s[r-1] / s[0]
				tol := 1e-12 + 1e-14/cond
				warm := z.MulT(pv)
				var worst float64
				for i, x := range warm.Data {
					worst = math.Max(worst, math.Abs(x-cold.Data[i]))
				}
				if worst > tol {
					t.Fatalf("warm polar factor differs from cold by %.3g > %.3g (σ_min/σ_max = %.3g)", worst, tol, cond)
				}
			})
		}
	}
}
