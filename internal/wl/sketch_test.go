package wl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randVector builds a sparse vector with n features drawn from [0, space).
func randVector(rng *rand.Rand, n, space int) CompactVector {
	v := make(map[int]float64)
	for len(v) < n {
		v[rng.Intn(space)] = float64(1 + rng.Intn(5))
	}
	return fromMap(v)
}

func TestSketchOptionsValidate(t *testing.T) {
	cases := []struct {
		opt SketchOptions
		ok  bool
	}{
		{SketchOptions{}, true}, // defaults resolve
		{SketchOptions{Hashes: 64, Bands: 16, Buckets: 1 << 10, Seed: 1}, true},
		{SketchOptions{Hashes: 64, Bands: 64, Buckets: 1 << 10, Seed: 1}, true},
		{SketchOptions{Hashes: 64, Bands: 48, Buckets: 1 << 10, Seed: 1}, false}, // 48 ∤ 64
		{SketchOptions{Hashes: 8, Bands: 16, Buckets: 1 << 10, Seed: 1}, false},  // bands > hashes
		{SketchOptions{Hashes: 64, Bands: 16, Buckets: math.MaxInt32, Seed: 1}, true},
		{SketchOptions{Hashes: 64, Bands: 16, Buckets: math.MaxInt32 + 1, Seed: 1}, false}, // keys are int32
		{SketchOptions{Hashes: 64, Bands: 16, Buckets: 5000000000, Seed: 1}, false},
		{SketchOptions{Hashes: maxSketchHashes, Bands: 16, Buckets: 1 << 10, Seed: 1}, true},
		{SketchOptions{Hashes: 1 << 40, Bands: 16, Buckets: 1 << 10, Seed: 1}, false}, // a corrupt file's width
	}
	for i, c := range cases {
		_, err := SketchVector(fromMap(map[int]float64{1: 1}), c.opt)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestSketchEmptyVector(t *testing.T) {
	sig, err := SketchVector(CompactVector{}, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range sig {
		if x != emptySlot {
			t.Fatalf("position %d of empty sketch is %d, want sentinel", i, x)
		}
	}
}

// Equal supports must sketch identically regardless of counts — MinHash
// sees the support set only.
func TestSketchIgnoresCounts(t *testing.T) {
	a := fromMap(map[int]float64{3: 1, 9: 2, 100: 7})
	b := fromMap(map[int]float64{3: 5, 9: 1, 100: 2})
	sa, err := SketchVector(a, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SketchVector(b, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("position %d differs for equal supports", i)
		}
	}
}

// Sketches must be bit-identical at every worker count: each signature
// depends only on its own vector, and the cache keys rely on it.
func TestSketchesDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vectors := make([]CompactVector, 300)
	for i := range vectors {
		vectors[i] = randVector(rng, 1+rng.Intn(40), 1<<16)
	}
	opt := SketchOptions{Hashes: 32, Bands: 8, Buckets: 1 << 16, Seed: 7}
	ref, err := Sketches(vectors, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := Sketches(vectors, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: sketch %d position %d differs", workers, i, j)
				}
			}
		}
	}
}

// The MinHash estimate should track true Jaccard similarity: on pairs of
// known overlap, the 256-hash estimate must land within a loose bound.
func TestSketchJaccardEstimates(t *testing.T) {
	opt := SketchOptions{Hashes: 256, Bands: 16, Buckets: 1 << 20, Seed: 3}
	for _, tc := range []struct {
		shared, onlyA, onlyB int
	}{
		{100, 0, 0},   // identical: J=1
		{50, 50, 50},  // J=1/3
		{0, 100, 100}, // disjoint: J=0
	} {
		a, b := make(map[int]float64), make(map[int]float64)
		for i := 0; i < tc.shared; i++ {
			a[i] = 1
			b[i] = 1
		}
		for i := 0; i < tc.onlyA; i++ {
			a[1000+i] = 1
		}
		for i := 0; i < tc.onlyB; i++ {
			b[2000+i] = 1
		}
		sa, _ := SketchVector(fromMap(a), opt)
		sb, _ := SketchVector(fromMap(b), opt)
		got, err := SketchJaccard(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(tc.shared) / float64(tc.shared+tc.onlyA+tc.onlyB)
		if tc.shared+tc.onlyA+tc.onlyB == 0 {
			truth = 1
		}
		if diff := got - truth; diff > 0.12 || diff < -0.12 {
			t.Errorf("J estimate %.3f, truth %.3f (shared=%d a=%d b=%d)",
				got, truth, tc.shared, tc.onlyA, tc.onlyB)
		}
	}
}

func TestSketchJaccardWidthMismatch(t *testing.T) {
	if _, err := SketchJaccard(make(Sketch, 8), make(Sketch, 16)); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := SketchJaccard(Sketch{}, Sketch{}); err == nil {
		t.Fatal("empty sketches accepted")
	}
}

// bandKey must separate bands: equal rows in band 0 with different rows
// in band 1 must produce equal keys for band 0 and different for band 1.
func TestBandKey(t *testing.T) {
	a := Sketch{1, 2, 3, 4}
	b := Sketch{1, 2, 9, 9}
	if bandKey(a, 0, 2) != bandKey(b, 0, 2) {
		t.Fatal("equal band hashed unequally")
	}
	if bandKey(a, 1, 2) == bandKey(b, 1, 2) {
		t.Fatal("unequal band hashed equally")
	}
}

func ExampleSketchVector() {
	sig, _ := SketchVector(fromMap(map[int]float64{1: 2, 5: 1}), SketchOptions{Hashes: 4, Bands: 2, Buckets: 64, Seed: 1})
	fmt.Println(len(sig))
	// Output: 4
}
