// Package linalg provides the dense linear-algebra kernels the spectral
// clustering baselines need: a cyclic Jacobi eigensolver for small symmetric
// matrices (Nyström landmark blocks) and orthogonal (subspace) iteration for
// the top-K eigenpairs of large symmetric matrices (full spectral
// clustering), plus modified Gram–Schmidt orthonormalization.
package linalg

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric matrix, row-major.
type Sym struct {
	N    int
	Data []float64
}

// NewSym allocates an n×n zero matrix.
func NewSym(n int) *Sym { return &Sym{N: n, Data: make([]float64, n*n)} }

// Set sets elements (i,j) and (j,i).
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// Jacobi computes the full eigendecomposition of a symmetric matrix using
// cyclic Jacobi rotations. It returns eigenvalues (descending) and the
// corresponding eigenvectors as rows of V (V[k] is the k-th eigenvector).
// Suitable for small matrices (O(n³); the Nyström landmark block).
func Jacobi(a *Sym, maxSweeps int, tol float64) (vals []float64, vecs [][]float64, err error) {
	n := a.N
	if n == 0 {
		return nil, nil, fmt.Errorf("linalg: empty matrix")
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	if tol <= 0 {
		tol = 1e-12
	}
	// Work on a copy.
	m := make([]float64, len(a.Data))
	copy(m, a.Data)
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	off := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += m[i*n+j] * m[i*n+j]
			}
		}
		return s
	}
	for sweep := 0; sweep < maxSweeps && off() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m[k*n+p], m[k*n+q]
					m[k*n+p] = c*akp - s*akq
					m[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = c*apk - s*aqk
					m[q*n+k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals = make([]float64, n)
	order := make([]int, n)
	for i := range vals {
		vals[i] = m[i*n+i]
		order[i] = i
	}
	// Sort descending by eigenvalue.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if vals[order[j]] > vals[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	outVals := make([]float64, n)
	vecs = make([][]float64, n)
	for r, idx := range order {
		outVals[r] = vals[idx]
		ev := make([]float64, n)
		for k := 0; k < n; k++ {
			ev[k] = v[k*n+idx]
		}
		vecs[r] = ev
	}
	return outVals, vecs, nil
}

// MulVecFn abstracts a symmetric operator for subspace iteration, so callers
// can pass dense, sparse or implicitly-defined matrices.
type MulVecFn func(dst, x []float64)

// SubspaceIteration computes approximations to the top-k eigenpairs of a
// symmetric n×n operator via block power iteration with Gram–Schmidt
// re-orthonormalization. Eigenvalues are returned in descending |λ| order;
// eigenvectors as rows.
func SubspaceIteration(mul MulVecFn, n, k, iters int, seed int64) (vals []float64, vecs [][]float64, err error) {
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("linalg: k=%d invalid for n=%d", k, n)
	}
	if iters <= 0 {
		iters = 100
	}
	// Deterministic pseudo-random start (xorshift) — math/rand would also
	// work, but this keeps the dependency surface tiny.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(int64(state>>11))/float64(1<<52) - 1
	}
	block := make([][]float64, k)
	for i := range block {
		block[i] = make([]float64, n)
		for j := range block[i] {
			block[i][j] = next()
		}
	}
	GramSchmidt(block)
	tmp := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range block {
			mul(tmp, block[i])
			copy(block[i], tmp)
		}
		GramSchmidt(block)
	}
	// Rayleigh quotients as eigenvalue estimates.
	vals = make([]float64, k)
	for i := range block {
		mul(tmp, block[i])
		var num float64
		for j := range tmp {
			num += tmp[j] * block[i][j]
		}
		vals[i] = num
	}
	// Order by descending |λ| (power iteration converges to largest modulus).
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if math.Abs(vals[order[j]]) > math.Abs(vals[order[i]]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	outV := make([]float64, k)
	outB := make([][]float64, k)
	for r, idx := range order {
		outV[r] = vals[idx]
		outB[r] = block[idx]
	}
	return outV, outB, nil
}

// GramSchmidt orthonormalizes the rows of block in place (modified
// Gram–Schmidt). Rows that become numerically zero are re-randomized from the
// row index to keep the basis full-rank.
func GramSchmidt(block [][]float64) {
	for i := range block {
		for j := 0; j < i; j++ {
			var dot float64
			for t := range block[i] {
				dot += block[i][t] * block[j][t]
			}
			for t := range block[i] {
				block[i][t] -= dot * block[j][t]
			}
		}
		var norm float64
		for _, v := range block[i] {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			// Degenerate direction: reset deterministically and redo this row.
			for t := range block[i] {
				block[i][t] = math.Sin(float64((i+1)*(t+3)) * 0.7357)
			}
			for j := 0; j < i; j++ {
				var dot float64
				for t := range block[i] {
					dot += block[i][t] * block[j][t]
				}
				for t := range block[i] {
					block[i][t] -= dot * block[j][t]
				}
			}
			norm = 0
			for _, v := range block[i] {
				norm += v * v
			}
			norm = math.Sqrt(norm)
			if norm < 1e-12 {
				norm = 1
			}
		}
		inv := 1 / norm
		for t := range block[i] {
			block[i][t] *= inv
		}
	}
}
