package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jobgraph/internal/linalg"
)

func TestARIIdenticalAndRenamed(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7} // same partition, renamed
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("ARI = %g, want 1", got)
	}
}

func TestARIDisagreement(t *testing.T) {
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 1, 2, 0, 1, 2}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.01 {
		t.Fatalf("ARI = %g, want ~<=0 for crossing partitions", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Classic example: one swap between two balanced clusters of 3.
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 0, 1, 1, 1, 1}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Contingency: [[2,1],[0,3]]; sumJoint=1+0+3=4... compute:
	// C(2,2)=1, C(1,2)=0, C(3,2)=3 → sumJoint=4; sumA=3+3=6;
	// sumB=C(2,2)+C(4,2)=1+6=7; total=C(6,2)=15; exp=6*7/15=2.8;
	// max=(6+7)/2=6.5; ARI=(4-2.8)/(6.5-2.8)=1.2/3.7.
	want := 1.2 / 3.7
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ARI = %g, want %g", got, want)
	}
}

func TestARIDegenerate(t *testing.T) {
	one := []int{0, 0, 0}
	if got, _ := ARI(one, one); got != 1 {
		t.Fatalf("all-one-cluster ARI = %g", got)
	}
	if got, _ := ARI([]int{0, 1, 2}, []int{4, 5, 6}); got != 1 {
		t.Fatalf("all-singletons ARI = %g", got)
	}
	if got, _ := ARI([]int{0, 0, 0}, []int{0, 1, 2}); got != 0 {
		t.Fatalf("constant-vs-singletons ARI = %g", got)
	}
	if _, err := ARI([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ARI(nil, nil); err == nil {
		t.Fatal("empty labelings accepted")
	}
}

func TestNMIBasics(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if got, _ := NMI(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI(self) = %g", got)
	}
	b := []int{3, 3, 8, 8}
	if got, _ := NMI(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI(renamed) = %g", got)
	}
	// Independent labelings: near zero.
	c := []int{0, 1, 0, 1}
	got, _ := NMI(a, c)
	if got > 1e-9 {
		t.Fatalf("NMI(independent) = %g", got)
	}
	// Degenerate conventions.
	if got, _ := NMI([]int{0, 0}, []int{0, 0}); got != 1 {
		t.Fatalf("both-constant NMI = %g", got)
	}
	if got, _ := NMI([]int{0, 0}, []int{0, 1}); got != 0 {
		t.Fatalf("one-constant NMI = %g", got)
	}
}

func TestNMIBoundedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]int, len(raw))
		b := make([]int, len(raw))
		for i, v := range raw {
			a[i] = int(v % 4)
			b[i] = int(v % 3)
		}
		got, err := NMI(a, b)
		if err != nil {
			return false
		}
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestARISymmetricProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]int, len(raw))
		b := make([]int, len(raw))
		for i, v := range raw {
			a[i] = int(v % 5)
			b[i] = int((v / 5) % 4)
		}
		x, err1 := ARI(a, b)
		y, err2 := ARI(b, a)
		return err1 == nil && err2 == nil && math.Abs(x-y) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPurity(t *testing.T) {
	pred := []int{0, 0, 0, 1, 1, 1}
	truth := []int{0, 0, 1, 1, 1, 1}
	got, err := Purity(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5.0/6.0) > 1e-12 {
		t.Fatalf("purity = %g, want 5/6", got)
	}
	if got, _ := Purity(truth, truth); got != 1 {
		t.Fatalf("self purity = %g", got)
	}
}

func TestSilhouetteSeparatedClusters(t *testing.T) {
	// Two tight far-apart clusters: silhouette near 1.
	pts := [][]float64{{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}}
	labels := []int{0, 0, 1, 1}
	d := linalg.NewSymMatrix(4)
	for i := range pts {
		for j := i; j < len(pts); j++ {
			dist, _ := linalg.Dist2(pts[i], pts[j])
			d.Set(i, j, dist)
		}
	}
	s, err := Silhouette(d, labels)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.95 {
		t.Fatalf("silhouette = %g, want near 1", s)
	}
	// Deliberately mixed labels must score clearly worse.
	bad, err := Silhouette(d, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad >= s {
		t.Fatalf("bad labeling silhouette %g >= good %g", bad, s)
	}
}

func TestSilhouetteValidation(t *testing.T) {
	d := linalg.NewSymMatrix(3)
	if _, err := Silhouette(d, []int{0, 0}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if _, err := Silhouette(d, []int{0, 0, 0}); err == nil {
		t.Fatal("single cluster accepted")
	}
}

func TestSilhouetteSingletonCluster(t *testing.T) {
	d := linalg.NewSymMatrix(3)
	d.Set(0, 1, 1)
	d.Set(0, 2, 5)
	d.Set(1, 2, 5)
	s, err := Silhouette(d, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("silhouette = %g, want > 0 (singleton contributes 0)", s)
	}
}

func TestDistanceFromSimilarity(t *testing.T) {
	sim := &linalg.SymMatrix{N: 2, Data: []float64{1, 0.5, 1}}
	d, err := DistanceFromSimilarity(sim)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0) != 0 {
		t.Fatalf("self distance = %g", d.At(0, 0))
	}
	if want := math.Sqrt(1.0); math.Abs(d.At(0, 1)-want) > 1e-12 {
		t.Fatalf("distance = %g, want %g", d.At(0, 1), want)
	}
	bad := &linalg.SymMatrix{N: 2, Data: []float64{1, 2, 1}}
	if _, err := DistanceFromSimilarity(bad); err == nil {
		t.Fatal("similarity > 1 accepted")
	}
}

func TestSpectralThenMetricsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_ = rng
	aff, truth := blockAffinity([]int{12, 12, 12}, 0.9, 0.05)
	res, err := Spectral(aff, SpectralOptions{K: 3, KMeans: KMeansOptions{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DistanceFromSimilarity(aff)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Silhouette(dist, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.5 {
		t.Fatalf("silhouette = %g on clean blocks", s)
	}
	nmi, _ := NMI(res.Labels, truth)
	if nmi < 0.99 {
		t.Fatalf("NMI = %g", nmi)
	}
}
