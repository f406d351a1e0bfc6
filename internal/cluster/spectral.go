package cluster

import (
	"fmt"
	"math"

	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
)

// obsSpectralRuns counts full spectral clusterings (eigendecomposition
// plus embedded k-means); obsSpectralEigenRetries counts relaxed-
// tolerance re-decompositions after the solver hit its sweep cap.
var (
	obsSpectralRuns         = obs.Default().Counter("cluster.spectral.runs")
	obsSpectralEigenRetries = obs.Default().Counter("cluster.spectral.eigen_retries")
)

// relaxedEigenTol is the fallback convergence threshold used when the
// default-tolerance Jacobi decomposition exhausts its sweep budget. Four
// orders looser than the 1e-12 default but still far tighter than the
// cluster-separation scale, so the embedding stays trustworthy.
const relaxedEigenTol = 1e-8

// SpectralOptions configures Ng–Jordan–Weiss spectral clustering.
type SpectralOptions struct {
	K      int
	KMeans KMeansOptions // K field is overridden with SpectralOptions.K
}

// SpectralResult is the spectral clustering output.
type SpectralResult struct {
	Labels []int
	// Embedding is the row-normalized top-K eigenvector matrix the
	// labels were derived from (n×K); exposed for inspection and for
	// silhouette computation in the embedded space.
	Embedding *linalg.Matrix
	// Eigenvalues of the normalized affinity, descending. The gap after
	// the K-th value is the usual heuristic check that K is sensible.
	Eigenvalues []float64
	// Warnings records non-fatal degradations taken to produce the
	// result: a relaxed-tolerance eigendecomposition retry, a solver
	// that never converged, or a degenerate k-means labeling. Empty on
	// a clean run.
	Warnings []string
}

// Spectral clusters n items given their symmetric, non-negative affinity
// matrix (similarities, not distances) following Ng, Jordan & Weiss
// (NIPS 2001):
//
//  1. L ← D^{-1/2} A D^{-1/2} with D the diagonal degree matrix,
//  2. X ← top-K eigenvectors of L as columns,
//  3. rows of X normalized to unit length,
//  4. k-means on the rows.
//
// The paper applies exactly this to the WL similarity map to obtain its
// five job groups (§VI-A).
func Spectral(affinity *linalg.SymMatrix, opt SpectralOptions) (*SpectralResult, error) {
	n := affinity.N
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", opt.K, n)
	}
	l, err := normalizedAffinity(affinity)
	if err != nil {
		return nil, err
	}

	var warnings []string
	eig := linalg.SymmetricEigen(l, 0)
	if !eig.Converged {
		// The solver hit its sweep cap at the default tolerance. Retry
		// once with a relaxed threshold rather than failing the whole
		// pipeline: the embedding only needs cluster-scale accuracy.
		obsSpectralEigenRetries.Add(1)
		warnings = append(warnings, fmt.Sprintf(
			"eigensolver hit sweep cap after %d sweeps; retried with relaxed tolerance %g", eig.Sweeps, relaxedEigenTol))
		eig = linalg.SymmetricEigen(l, relaxedEigenTol)
		if !eig.Converged {
			warnings = append(warnings, fmt.Sprintf(
				"eigensolver still non-converged at tolerance %g; using best approximation", relaxedEigenTol))
		}
	}
	x, err := linalg.TopKEigenvectors(eig, opt.K)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Row-normalize.
	for i := 0; i < n; i++ {
		linalg.Normalize(x.Row(i))
	}

	points := make([][]float64, n)
	for i := 0; i < n; i++ {
		points[i] = x.Row(i)
	}
	km := opt.KMeans
	km.K = opt.K
	res, err := KMeans(points, km)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if res.Degenerate {
		warnings = append(warnings, fmt.Sprintf(
			"k-means produced %d populated clusters for k=%d despite reseeding; groups may be merged",
			distinctLabels(res.Labels), opt.K))
	}
	obsSpectralRuns.Add(1)
	return &SpectralResult{
		Labels:      res.Labels,
		Embedding:   x,
		Eigenvalues: eig.Values,
		Warnings:    warnings,
	}, nil
}

// normalizedAffinity returns L = D^{-1/2} A D^{-1/2}, with D the
// diagonal degree matrix of the non-negative affinity A, packed like A.
// Each cell is computed once from its upper-triangle position, so L is
// exactly symmetric.
func normalizedAffinity(a *linalg.SymMatrix) (*linalg.SymMatrix, error) {
	n := a.N
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			v := a.At(i, j)
			if v < 0 {
				return nil, fmt.Errorf("cluster: negative affinity at (%d,%d)", i, j)
			}
			deg += v
		}
		// A fully isolated item (zero similarity to everything,
		// including itself) keeps a zero row; it lands in whatever
		// cluster k-means gives the zero embedding.
		if deg > 0 {
			dinv[i] = 1 / math.Sqrt(deg)
		}
	}
	l := linalg.NewSymMatrix(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			l.Data[k] = a.Data[k] * dinv[i] * dinv[j]
			k++
		}
	}
	return l, nil
}

// EigenGap returns the relative gap λ[k-1]−λ[k] of the result's spectrum
// (descending eigenvalues), the standard diagnostic for choosing K.
func (r *SpectralResult) EigenGap(k int) (float64, error) {
	if k < 1 || k >= len(r.Eigenvalues) {
		return 0, fmt.Errorf("cluster: eigen gap k=%d out of range [1,%d)", k, len(r.Eigenvalues))
	}
	return r.Eigenvalues[k-1] - r.Eigenvalues[k], nil
}
