package linalg

import (
	"fmt"
	"math"
	"sort"

	"jobgraph/internal/obs"
)

// Eigensolver convergence telemetry: Jacobi sweeps to convergence per
// decomposition. A sweep count creeping toward jacobiMaxSweeps means
// the affinity matrix is ill-conditioned and results are suspect.
var (
	obsEigenRuns         = obs.Default().Counter("linalg.eigen.runs")
	obsEigenSweeps       = obs.Default().Histogram("linalg.eigen.sweeps")
	obsEigenNonConverged = obs.Default().Counter("linalg.eigen.nonconverged")
)

// EigenResult holds the eigendecomposition of a real symmetric matrix:
// A = V · diag(Values) · Vᵀ, with Values sorted in descending order and
// Vectors[k] the unit eigenvector for Values[k].
type EigenResult struct {
	Values  []float64
	Vectors [][]float64 // Vectors[k][i] = i-th component of eigenvector k

	// Sweeps is the number of full Jacobi sweeps executed. Converged
	// reports whether the off-diagonal mass actually dropped below the
	// tolerance, or the solver stopped at the sweep cap with the best
	// approximation it had. A non-converged result is still a usable
	// (approximate) decomposition; callers decide whether to retry with
	// a relaxed tolerance or degrade.
	Sweeps    int
	Converged bool
}

// jacobiMaxSweeps bounds the number of full Jacobi sweeps. Cyclic Jacobi
// converges quadratically; well-conditioned similarity matrices finish in
// well under 20 sweeps even at n in the thousands.
const jacobiMaxSweeps = 64

// SymmetricEigen computes all eigenvalues and eigenvectors of the real
// symmetric matrix a using the cyclic Jacobi rotation method. The input
// is not modified: the rotations run on a dense working copy expanded
// from the packed triangle (rotating the packed form in place measured
// slower, since every rotation touches whole rows and columns). tol is
// the convergence threshold on the largest absolute off-diagonal element
// relative to the Frobenius norm; pass 0 for the default (1e-12).
//
// Jacobi is chosen over Householder-QR because (a) it is simple enough to
// verify from first principles, (b) it delivers small, uniformly accurate
// eigenpairs, and (c) the spectral-clustering matrices here are at most a
// few thousand square, where Jacobi's O(n³) per sweep is immaterial.
func SymmetricEigen(a *SymMatrix, tol float64) *EigenResult {
	if tol <= 0 {
		tol = 1e-12
	}
	n := a.N
	m := a.Dense()
	v := Identity(n)

	scale := m.FrobeniusNorm()
	if scale == 0 {
		scale = 1 // zero matrix: eigenvalues all zero, identity vectors
	}

	sweeps := 0
	for ; sweeps < jacobiMaxSweeps; sweeps++ {
		off := m.MaxAbsOffDiag()
		if off <= tol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= tol*scale/float64(n*n) {
					continue
				}
				rotate(m, v, p, q)
			}
		}
	}
	converged := m.MaxAbsOffDiag() <= tol*scale
	obsEigenRuns.Add(1)
	obsEigenSweeps.Observe(float64(sweeps))
	if !converged {
		obsEigenNonConverged.Add(1)
	}

	res := &EigenResult{
		Values:    make([]float64, n),
		Vectors:   make([][]float64, n),
		Sweeps:    sweeps,
		Converged: converged,
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
		res.Values[i] = m.At(i, i)
	}
	sort.Slice(order, func(x, y int) bool {
		return res.Values[order[x]] > res.Values[order[y]]
	})
	sortedVals := make([]float64, n)
	for k, idx := range order {
		sortedVals[k] = res.Values[idx]
		vec := make([]float64, n)
		for i := 0; i < n; i++ {
			vec[i] = v.At(i, idx) // columns of V are eigenvectors
		}
		res.Vectors[k] = vec
	}
	res.Values = sortedVals
	return res
}

// rotate applies one two-sided Jacobi rotation zeroing m[p][q], updating
// the accumulated eigenvector matrix v.
func rotate(m, v *Matrix, p, q int) {
	app := m.At(p, p)
	aqq := m.At(q, q)
	apq := m.At(p, q)

	// Rotation angle via the numerically stable t = sign(θ)/(|θ|+√(θ²+1)).
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(theta*theta+1))
	} else {
		t = -1 / (-theta + math.Sqrt(theta*theta+1))
	}
	c := 1 / math.Sqrt(t*t+1)
	s := t * c
	tau := s / (1 + c)

	n := m.Rows
	m.Set(p, p, app-t*apq)
	m.Set(q, q, aqq+t*apq)
	m.Set(p, q, 0)
	m.Set(q, p, 0)
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip := m.At(i, p)
		aiq := m.At(i, q)
		m.Set(i, p, aip-s*(aiq+tau*aip))
		m.Set(p, i, m.At(i, p))
		m.Set(i, q, aiq+s*(aip-tau*aiq))
		m.Set(q, i, m.At(i, q))
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, vip-s*(viq+tau*vip))
		v.Set(i, q, viq+s*(vip-tau*viq))
	}
}

// TopKEigenvectors returns the eigenvectors for the k largest eigenvalues
// as the columns of an n×k matrix — the spectral-embedding step of
// Ng–Jordan–Weiss clustering.
func TopKEigenvectors(res *EigenResult, k int) (*Matrix, error) {
	n := len(res.Values)
	if k < 1 || k > n {
		return nil, fmt.Errorf("linalg: k=%d out of range [1,%d]", k, n)
	}
	m := NewMatrix(n, k)
	for col := 0; col < k; col++ {
		for i := 0; i < n; i++ {
			m.Set(i, col, res.Vectors[col][i])
		}
	}
	return m, nil
}
