package core

import (
	"strings"
	"testing"

	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
)

const testWindow = 2 * 8 * 24 * 3600

func genJobs(t testing.TB, n int, seed int64) []trace.Job {
	t.Helper()
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func runPipeline(t testing.TB, nJobs int, seed int64) *Analysis {
	t.Helper()
	an, err := Run(genJobs(t, nJobs, seed), DefaultConfig(testWindow, seed))
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestRunPaperScale(t *testing.T) {
	an := runPipeline(t, 5000, 1)
	if len(an.Sample) != 100 {
		t.Fatalf("sample = %d, want 100", len(an.Sample))
	}
	if an.Similarity.N != 100 {
		t.Fatalf("similarity order %d", an.Similarity.N)
	}
	if len(an.Labels) != 100 {
		t.Fatalf("labels = %d", len(an.Labels))
	}
	if len(an.Groups) != 5 {
		t.Fatalf("groups = %d, want 5", len(an.Groups))
	}
}

func TestRunGroupInvariants(t *testing.T) {
	an := runPipeline(t, 5000, 2)
	totalMembers := 0
	prevCount := 1 << 30
	for i, gp := range an.Groups {
		if gp.Count != len(gp.Members) {
			t.Fatalf("group %s count mismatch", gp.Name)
		}
		totalMembers += gp.Count
		if gp.Count > prevCount {
			t.Fatalf("groups not population-ranked at %d", i)
		}
		prevCount = gp.Count
		if gp.Name != string(rune('A'+i)) {
			t.Fatalf("group %d named %s", i, gp.Name)
		}
		if gp.Population < 0 || gp.Population > 1 {
			t.Fatalf("population %g", gp.Population)
		}
		if gp.Representative == "" {
			t.Fatalf("group %s has no representative", gp.Name)
		}
		// Representative must be a member's job id.
		found := false
		for _, m := range gp.Members {
			if an.Graphs[m].JobID == gp.Representative {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("representative %s not in group %s", gp.Representative, gp.Name)
		}
	}
	if totalMembers != len(an.Sample) {
		t.Fatalf("members total %d != sample %d", totalMembers, len(an.Sample))
	}
}

func TestRunDominantGroupIsSmallChains(t *testing.T) {
	// The paper's headline clustering outcome: the dominant group is
	// made of small, chain-heavy jobs. At minimum, group A must hold a
	// plurality and have smaller mean size than the overall mean.
	an := runPipeline(t, 8000, 3)
	// The dominant group must hold a meaningful plurality.
	if an.Groups[0].Population < 0.2 {
		t.Fatalf("group A population = %.3f, want dominant", an.Groups[0].Population)
	}
	// A major short-chain block — the paper's group A profile (91%
	// chains, 90.6% short) — must exist among the top groups. Its rank
	// varies with the k-means seed.
	var shortChains *GroupProfile
	for i := range an.Groups {
		gp := &an.Groups[i]
		if gp.ChainFraction >= 0.9 && gp.ShortFraction >= 0.9 && gp.Population >= 0.15 {
			shortChains = gp
			break
		}
	}
	if shortChains == nil {
		for _, gp := range an.Groups {
			t.Logf("%s pop=%.2f chain=%.2f short=%.2f size=%.1f",
				gp.Name, gp.Population, gp.ChainFraction, gp.ShortFraction, gp.Sizes.Mean)
		}
		t.Fatal("no major short-chain group")
	}
	// Some other group holds the big jobs (paper's group D has the
	// highest averages across metrics).
	maxMean := 0.0
	for _, gp := range an.Groups {
		if gp.Sizes.Mean > maxMean {
			maxMean = gp.Sizes.Mean
		}
	}
	if maxMean < 2*shortChains.Sizes.Mean {
		t.Fatalf("no large-job group: max mean %.2f vs short-chain %.2f",
			maxMean, shortChains.Sizes.Mean)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runPipeline(t, 3000, 7)
	b := runPipeline(t, 3000, 7)
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different clustering")
		}
	}
}

func TestRunConflateOption(t *testing.T) {
	jobs := genJobs(t, 3000, 4)
	cfg := DefaultConfig(testWindow, 4)
	cfg.Conflate = true
	an, err := Run(jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Conflated graphs can only be at most as large as the originals.
	for i, g := range an.Graphs {
		if g.Size() > an.Sample[i].Graph.Size() {
			t.Fatalf("conflated graph grew: %d > %d", g.Size(), an.Sample[i].Graph.Size())
		}
	}
}

func TestRunValidation(t *testing.T) {
	jobs := genJobs(t, 100, 5)
	cfg := DefaultConfig(testWindow, 5)
	cfg.SampleSize = 0
	if _, err := Run(jobs, cfg); err == nil {
		t.Fatal("SampleSize=0 accepted")
	}
	cfg = DefaultConfig(testWindow, 5)
	cfg.Groups = 0
	if _, err := Run(jobs, cfg); err == nil {
		t.Fatal("Groups=0 accepted")
	}
	// Empty trace: nothing survives filtering.
	if _, err := Run(nil, DefaultConfig(testWindow, 5)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunSampleSmallerThanGroups(t *testing.T) {
	jobs := genJobs(t, 30, 6)
	cfg := DefaultConfig(testWindow, 6)
	cfg.SampleSize = 3
	cfg.Groups = 5
	if _, err := Run(jobs, cfg); err == nil {
		t.Fatal("sample < groups accepted")
	}
}

func TestSimilarityDiagonalOnes(t *testing.T) {
	an := runPipeline(t, 2000, 8)
	for i := 0; i < an.Similarity.N; i++ {
		if an.Similarity.At(i, i) != 1 {
			t.Fatalf("diagonal (%d) = %g", i, an.Similarity.At(i, i))
		}
	}
}

func TestSilhouetteComputed(t *testing.T) {
	an := runPipeline(t, 5000, 9)
	if an.Silhouette < -1 || an.Silhouette > 1 {
		t.Fatalf("silhouette = %g", an.Silhouette)
	}
	// Small identical chains guarantee at least one coherent cluster;
	// the overall score should not be pathological.
	if an.Silhouette < 0 {
		t.Logf("warning: silhouette %g < 0", an.Silhouette)
	}
}

func TestGroupNameOverflow(t *testing.T) {
	if groupName(0) != "A" || groupName(25) != "Z" {
		t.Fatal("letter names")
	}
	if groupName(26) != "G26" {
		t.Fatalf("overflow name = %s", groupName(26))
	}
}

func TestSeventeenSizeTypesInSample(t *testing.T) {
	// The paper's sample covers 17 size groups; our diverse sampler at
	// n=100 over a big trace must cover nearly all of them.
	an := runPipeline(t, 20000, 10)
	sizes := make(map[int]bool)
	for _, g := range an.Graphs {
		sizes[g.Size()] = true
	}
	if len(sizes) < 15 {
		t.Fatalf("sample covers %d sizes, want >= 15", len(sizes))
	}
}

func TestFilterStatsExposed(t *testing.T) {
	an := runPipeline(t, 2000, 11)
	if an.FilterStats.Input != 2000 || an.FilterStats.Kept == 0 {
		t.Fatalf("filter stats: %+v", an.FilterStats)
	}
}

func TestRunWindowTooTight(t *testing.T) {
	jobs := genJobs(t, 500, 12)
	cfg := DefaultConfig(1, 12) // window [0,1]: availability rejects all
	if _, err := Run(jobs, cfg); err == nil ||
		!strings.Contains(err.Error(), "no jobs survive") {
		t.Fatalf("err = %v", err)
	}
}
