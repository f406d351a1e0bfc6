package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jobgraph/internal/cluster"
)

// runFixtureCase is one core.Run configuration pinned in
// testdata/run_v1.txt.
type runFixtureCase struct {
	name      string
	jobs      int
	traceSeed int64
	seed      int64
	sample    int
	ann       bool
	short     bool // cheap enough for -short (and -race) runs
}

var runFixtureCases = []runFixtureCase{
	{name: "gen2000-seed1", jobs: 2000, traceSeed: 1, seed: 1, sample: 100, short: true},
	{name: "gen2000-seed2", jobs: 2000, traceSeed: 2, seed: 2, sample: 100, short: true},
	{name: "gen2000-seed3", jobs: 2000, traceSeed: 3, seed: 3, sample: 100, short: true},
	{name: "jobs5000-trace16-ann", jobs: 5000, traceSeed: 16, seed: 1, sample: 300, ann: true},
}

// runFixtureLine runs one case and renders it as a fixture line:
// name, Analysis.Fingerprint, the labels, and the spectral
// eigenvalues of the similarity matrix (shortest round-trip decimal).
func runFixtureLine(t *testing.T, c runFixtureCase) string {
	t.Helper()
	cfg := DefaultConfig(testWindow, c.seed)
	cfg.SampleSize = c.sample
	cfg.ANN = c.ann
	an, err := Run(genJobs(t, c.jobs, c.traceSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := an.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cluster.Spectral(an.Similarity, cluster.SpectralOptions{
		K: cfg.Groups, KMeans: cluster.KMeansOptions{Seed: cfg.Seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(an.Labels))
	for i, l := range an.Labels {
		labels[i] = strconv.Itoa(l)
	}
	eig := make([]string, len(spec.Eigenvalues))
	for i, v := range spec.Eigenvalues {
		eig[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return fmt.Sprintf("%s %s %s %s", c.name, fp, strings.Join(labels, ","), strings.Join(eig, ","))
}

// TestRunFixture pins core.Run against testdata/run_v1.txt, written by
// the code that still clustered a dense similarity matrix. The
// fingerprint (which hashes the dense similarity layout) and labels
// must match exactly; spectral eigenvalues within 1e-12, since a
// packed normalized affinity is exactly symmetric where the dense one
// differed in the last bit between its triangles.
func TestRunFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "run_v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed fixture line %.40q", line)
		}
		want[f[0]] = f
	}
	for _, c := range runFixtureCases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("n=300 eigensolve skipped in -short mode")
			}
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("fixture has no %s line", c.name)
			}
			got := strings.Fields(runFixtureLine(t, c))
			if got[1] != w[1] {
				t.Errorf("fingerprint %s, fixture %s", got[1], w[1])
			}
			if got[2] != w[2] {
				t.Errorf("labels differ from the fixture:\n got %s\nwant %s", got[2], w[2])
			}
			ge, we := strings.Split(got[3], ","), strings.Split(w[3], ",")
			if len(ge) != len(we) {
				t.Fatalf("%d eigenvalues, fixture has %d", len(ge), len(we))
			}
			for i := range ge {
				g, err1 := strconv.ParseFloat(ge[i], 64)
				x, err2 := strconv.ParseFloat(we[i], 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("eigenvalue %d: %v %v", i, err1, err2)
				}
				if math.Abs(g-x) > 1e-12 {
					t.Errorf("eigenvalue %d = %v, fixture %v", i, g, x)
				}
			}
		})
	}
}
