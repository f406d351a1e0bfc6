package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("bad layout: %v", m.Data)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestIdentityMul(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	p, err := Identity(2).Mul(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if p.Data[i] != m.Data[i] {
			t.Fatalf("I·M != M: %v", p.Data)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b, _ := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want[i][j] {
				t.Fatalf("product = %v", p.Data)
			}
		}
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("bad vec length accepted")
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestMaxAbsOffDiag(t *testing.T) {
	m, _ := FromRows([][]float64{{5, -3}, {2, 7}})
	if got := m.MaxAbsOffDiag(); got != 3 {
		t.Fatalf("MaxAbsOffDiag = %g, want 3", got)
	}
	one := NewMatrix(1, 1)
	one.Set(0, 0, 42)
	if got := one.MaxAbsOffDiag(); got != 0 {
		t.Fatalf("1x1 off-diag = %g, want 0", got)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if got := m.FrobeniusNorm(); got != 5 {
		t.Fatalf("Frobenius = %g, want 5", got)
	}
}

func TestStringRendering(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	s := m.String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Fatalf("render: %q", s)
	}
}

func TestVectorOps(t *testing.T) {
	d, err := Dot([]float64{1, 2}, []float64{3, 4})
	if err != nil || d != 11 {
		t.Fatalf("Dot = %g, %v", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("dot length mismatch accepted")
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %g", got)
	}
	x := []float64{3, 4}
	if n := Normalize(x); n != 5 || !almost(Norm2(x), 1, 1e-12) {
		t.Fatalf("Normalize: n=%g x=%v", n, x)
	}
	zero := []float64{0, 0}
	if n := Normalize(zero); n != 0 || zero[0] != 0 {
		t.Fatal("zero vector normalization changed data")
	}
	dist, err := Dist2([]float64{0, 0}, []float64{3, 4})
	if err != nil || dist != 5 {
		t.Fatalf("Dist2 = %g, %v", dist, err)
	}
	y := []float64{1, 1}
	if err := AXPY(2, []float64{1, 2}, y); err != nil || y[0] != 3 || y[1] != 5 {
		t.Fatalf("AXPY = %v, %v", y, err)
	}
	if err := AXPY(1, []float64{1}, y); err == nil {
		t.Fatal("AXPY length mismatch accepted")
	}
	Scale(2, y)
	if y[0] != 6 || y[1] != 10 {
		t.Fatalf("Scale = %v", y)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
