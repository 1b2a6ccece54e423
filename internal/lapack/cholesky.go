package lapack

import (
	"errors"
	"math"

	"repro/internal/mat"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input is singular
// or indefinite to working precision.
var ErrNotPositiveDefinite = errors.New("lapack: matrix not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite A. The Gram matrices of well-conditioned ALS
// updates are SPD, making this the fast path for the normal-equation solves
// (a third of the flops of an SVD-based pseudoinverse and no iteration).
func Cholesky(a *mat.Dense) (*mat.Dense, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, errors.New("lapack: Cholesky of non-square matrix")
	}
	l := mat.New(n, n)
	for j := 0; j < n; j++ {
		// diagonal
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s*inv)
		}
	}
	return l, nil
}

// SolveCholesky solves A X = B given the Cholesky factor L of A, via two
// triangular solves. B is n×m; the result is n×m.
func SolveCholesky(l, b *mat.Dense) *mat.Dense {
	x := b.Clone()
	col := make([]float64, x.Rows)
	for c := 0; c < x.Cols; c++ {
		for i := range col {
			col[i] = x.At(i, c)
		}
		cholSolveVec(l, col)
		for i, v := range col {
			x.Set(i, c, v)
		}
	}
	return x
}

// cholSolveVec overwrites y with the solution of L Lᵀ x = y: forward
// substitution L z = y, then back substitution Lᵀ x = z.
func cholSolveVec(l *mat.Dense, y []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for k := 0; k < i; k++ {
			if lik := li[k]; lik != 0 {
				y[i] -= lik * y[k]
			}
		}
		y[i] *= 1 / li[i]
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			if lki := l.At(k, i); lki != 0 {
				y[i] -= lki * y[k]
			}
		}
		y[i] *= 1 / l.At(i, i)
	}
}

// SolveGram solves the right-division X = B · G⁻¹ that every ALS update
// needs (B is m×n, G is an n×n Gram matrix): it tries Cholesky first and
// falls back to the SVD pseudoinverse when G is singular, matching the †
// (Moore-Penrose) semantics of the paper's update rules.
func SolveGram(b, g *mat.Dense) *mat.Dense {
	l, err := Cholesky(g)
	if err != nil {
		return b.Mul(PInv(g))
	}
	// X Gᵀ = B with G symmetric, i.e. G Xᵀ = Bᵀ: each row of X is one
	// column of Xᵀ, solved in place.
	x := b.Clone()
	for r := 0; r < x.Rows; r++ {
		cholSolveVec(l, x.Row(r))
	}
	return x
}
