package cluster

import "testing"

func TestChooseKRecoversBlockCount(t *testing.T) {
	for _, blocks := range [][]int{
		{10, 10},
		{15, 10, 8},
		{20, 10, 6, 5, 4},
	} {
		aff, _ := blockAffinity(blocks, 0.9, 0.02)
		k, err := ChooseK(aff, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		if k != len(blocks) {
			t.Fatalf("blocks=%v: ChooseK = %d, want %d", blocks, k, len(blocks))
		}
	}
}

func TestChooseKValidation(t *testing.T) {
	aff, _ := blockAffinity([]int{5, 5}, 0.9, 0.1)
	if _, err := ChooseK(aff, 0, 3); err == nil {
		t.Fatal("minK=0 accepted")
	}
	if _, err := ChooseK(aff, 3, 2); err == nil {
		t.Fatal("maxK<minK accepted")
	}
	if _, err := ChooseK(aff, 2, 10); err == nil {
		t.Fatal("maxK>=n accepted")
	}
	neg, _ := blockAffinity([]int{2, 2}, 0.5, 0.1)
	neg.Set(0, 1, -0.5)
	if _, err := ChooseK(neg, 1, 2); err == nil {
		t.Fatal("negative affinity accepted")
	}
}

func TestChooseKRangeRespected(t *testing.T) {
	aff, _ := blockAffinity([]int{10, 10, 10}, 0.9, 0.02)
	// Forcing the range away from the true K must still return a value
	// inside the range.
	k, err := ChooseK(aff, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if k < 5 || k > 7 {
		t.Fatalf("k = %d outside [5,7]", k)
	}
}
