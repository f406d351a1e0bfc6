package linalg

import "fmt"

// SymMatrix is a symmetric matrix stored as its packed upper triangle:
// n(n+1)/2 float64s instead of n², row-major with row i starting at
// i*n - i*(i-1)/2. The similarity matrices this pipeline builds are
// symmetric by construction, so the packed form halves both the live
// heap cost of the kernel stage and the size of every cached artifact
// that embeds one. It is the one type for similarity and distance
// matrices from the kernel stage to the eigensolver, so symmetry is a
// property of the type rather than a run-time check.
type SymMatrix struct {
	N    int
	Data []float64 // len = N*(N+1)/2, packed upper triangle
}

// NewSymMatrix returns a zero symmetric matrix of order n. Like
// NewMatrix it panics on a non-positive order: shapes here derive from
// validated sample sizes, so a bad one is a programming error.
func NewSymMatrix(n int) *SymMatrix {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid symmetric order %d", n))
	}
	return &SymMatrix{N: n, Data: make([]float64, n*(n+1)/2)}
}

// idx maps (i, j) with i <= j to the packed offset.
func (s *SymMatrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*s.N - i*(i-1)/2 + (j - i)
}

// At returns element (i, j) == (j, i).
func (s *SymMatrix) At(i, j int) float64 { return s.Data[s.idx(i, j)] }

// Set assigns element (i, j) and, implicitly, (j, i).
func (s *SymMatrix) Set(i, j int, v float64) { s.Data[s.idx(i, j)] = v }

// Dense expands the packed triangle into a full row-major Matrix. The
// mirrored cells are bitwise copies, so algorithms running on the dense
// form see exactly the matrix the packed writes described. Its only
// callers are SymmetricEigen's working copy and fingerprints that hash
// the n² layout.
func (s *SymMatrix) Dense() *Matrix {
	m := NewMatrix(s.N, s.N)
	k := 0
	for i := 0; i < s.N; i++ {
		for j := i; j < s.N; j++ {
			v := s.Data[k]
			k++
			m.Data[i*s.N+j] = v
			m.Data[j*s.N+i] = v
		}
	}
	return m
}
