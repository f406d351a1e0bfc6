package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
	// (1,1)/√2 and (1,-1)/√2.
	res := SymmetricEigen(symFromRows(t, [][]float64{{2, 1}, {1, 2}}), 0)
	if !almost(res.Values[0], 3, 1e-10) || !almost(res.Values[1], 1, 1e-10) {
		t.Fatalf("values = %v, want [3 1]", res.Values)
	}
	v0 := res.Vectors[0]
	if !almost(math.Abs(v0[0]), 1/math.Sqrt2, 1e-10) ||
		!almost(math.Abs(v0[1]), 1/math.Sqrt2, 1e-10) {
		t.Fatalf("vector 0 = %v", v0)
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	res := SymmetricEigen(symFromRows(t, [][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}}), 0)
	want := []float64{5, 3, -2}
	for i, w := range want {
		if !almost(res.Values[i], w, 1e-12) {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
}

func TestSymmetricEigenZeroMatrix(t *testing.T) {
	res := SymmetricEigen(NewSymMatrix(3), 0)
	for _, v := range res.Values {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", res.Values)
		}
	}
}

// symFromRows packs the upper triangle of a square row slice.
func symFromRows(t *testing.T, rows [][]float64) *SymMatrix {
	t.Helper()
	s := NewSymMatrix(len(rows))
	for i, r := range rows {
		if len(r) != s.N {
			t.Fatalf("row %d has %d cols, want %d", i, len(r), s.N)
		}
		for j := i; j < s.N; j++ {
			s.Set(i, j, r[j])
		}
	}
	return s
}

// reconstruct builds V diag(λ) Vᵀ from an eigen result.
func reconstruct(res *EigenResult) *Matrix {
	n := len(res.Values)
	out := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		lam := res.Values[k]
		vec := res.Vectors[k]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += lam * vec[i] * vec[j]
			}
		}
	}
	return out
}

func randomSymmetric(rng *rand.Rand, n int) *SymMatrix {
	m := NewSymMatrix(n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// gram returns the packed Gram matrix XXᵀ of a random n×cols X: a
// symmetric PSD test input.
func gram(rng *rand.Rand, n, cols int) *SymMatrix {
	x := NewMatrix(n, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g := NewSymMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d, _ := Dot(x.Row(i), x.Row(j))
			g.Set(i, j, d)
		}
	}
	return g
}

func TestEigenReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		s := randomSymmetric(rng, n)
		rec := reconstruct(SymmetricEigen(s, 0))
		m := s.Dense()
		scale := 1 + m.FrobeniusNorm()
		for i := range m.Data {
			if math.Abs(rec.Data[i]-m.Data[i]) > 1e-8*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvectorsOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		res := SymmetricEigen(randomSymmetric(rng, n), 0)
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				d, _ := Dot(res.Vectors[a], res.Vectors[b])
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(d-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvalueEquationProperty(t *testing.T) {
	// A v = λ v for every returned pair.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := randomSymmetric(rng, n)
		res := SymmetricEigen(s, 0)
		m := s.Dense()
		scale := 1 + m.FrobeniusNorm()
		for k := 0; k < n; k++ {
			av, err := m.MulVec(res.Vectors[k])
			if err != nil {
				return false
			}
			for i := range av {
				if math.Abs(av[i]-res.Values[k]*res.Vectors[k][i]) > 1e-7*scale {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenLargeWellConditioned(t *testing.T) {
	// A Gram matrix XXᵀ is symmetric PSD; check values are non-negative
	// and the trace is preserved, at the pipeline's typical n=100.
	rng := rand.New(rand.NewSource(7))
	n := 100
	g := gram(rng, n, 20)
	res := SymmetricEigen(g, 0)
	var trace, sum float64
	for i := 0; i < n; i++ {
		trace += g.At(i, i)
	}
	for _, v := range res.Values {
		if v < -1e-6*trace {
			t.Fatalf("PSD matrix produced negative eigenvalue %g", v)
		}
		sum += v
	}
	if !almost(trace, sum, 1e-6*trace) {
		t.Fatalf("trace %g != eigenvalue sum %g", trace, sum)
	}
}

func TestTopKEigenvectors(t *testing.T) {
	res := SymmetricEigen(symFromRows(t, [][]float64{{2, 1}, {1, 2}}), 0)
	top, err := TopKEigenvectors(res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top.Rows != 2 || top.Cols != 1 {
		t.Fatalf("shape = %dx%d", top.Rows, top.Cols)
	}
	if !almost(math.Abs(top.At(0, 0)), 1/math.Sqrt2, 1e-10) {
		t.Fatalf("top vector = %v", top.Data)
	}
	if _, err := TopKEigenvectors(res, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TopKEigenvectors(res, 3); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestPowerIterationDominantPair(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	val, vec, err := PowerIteration(m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(val, 3, 1e-8) {
		t.Fatalf("dominant eigenvalue = %g, want 3", val)
	}
	// Eigenvector error converges as the square root of the eigenvalue
	// error; allow a correspondingly looser tolerance.
	if !almost(math.Abs(vec[0]), 1/math.Sqrt2, 1e-4) {
		t.Fatalf("dominant vector = %v", vec)
	}
}

func TestPowerIterationMatchesJacobiProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		// PSD Gram matrix: dominant eigenvalue is the largest one and
		// power iteration converges cleanly.
		g := gram(rng, n, n+2)
		full := SymmetricEigen(g, 0)
		val, _, err := PowerIteration(g.Dense(), 1e-12, 5000)
		if err != nil {
			return false
		}
		scale := 1 + math.Abs(full.Values[0])
		return math.Abs(val-full.Values[0]) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerIterationValidation(t *testing.T) {
	if _, _, err := PowerIteration(NewMatrix(2, 3), 0, 0); err == nil {
		t.Fatal("non-square accepted")
	}
	// Zero matrix: eigenvalue 0.
	val, _, err := PowerIteration(NewMatrix(3, 3), 0, 0)
	if err != nil || val != 0 {
		t.Fatalf("zero matrix: %g, %v", val, err)
	}
}

func TestEigenConvergenceReported(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 12
	res := SymmetricEigen(randomSymmetric(rng, n), 0)
	if !res.Converged {
		t.Fatalf("well-conditioned matrix reported non-converged after %d sweeps", res.Sweeps)
	}
	if res.Sweeps < 1 || res.Sweeps > jacobiMaxSweeps {
		t.Fatalf("sweeps = %d out of (0,%d]", res.Sweeps, jacobiMaxSweeps)
	}
}

func TestEigenDiagonalConvergesInZeroSweeps(t *testing.T) {
	res := SymmetricEigen(symFromRows(t, [][]float64{{4, 0}, {0, 1}}), 0)
	if !res.Converged || res.Sweeps != 0 {
		t.Fatalf("diagonal input: converged=%v sweeps=%d, want true/0", res.Converged, res.Sweeps)
	}
}
