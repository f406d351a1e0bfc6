package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// tinySizes shrink every workload to a fraction of a second.
var tinySizes = sizes{
	ingestJobs: 800, ingestSample: 20,
	clusterJobs: 600, clusterSample: 30, clusterTraces: 2,
	serveTrainJobs: 600, serveSample: 20,
	serveClientJobs: 400,
	similarPerCycle: 1,
	probeOps:        20,
	setupRepeats:    2,
	serveBoots:      2,
	minPasses:       2,
}

// buildDaemon compiles jobgraphd from this checkout into dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jobgraphd")
	out, err := exec.Command("go", "build", "-o", bin, "jobgraph/cmd/jobgraphd").CombinedOutput()
	if err != nil {
		t.Fatalf("building jobgraphd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced, under two seeds: each must finish with every metric of its
// mode and no failed operation.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds jobgraphd and runs every workload")
	}
	daemon := buildDaemon(t)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seed := range []int64{1, 7} {
			for _, traced := range []bool{false, true} {
				e := &env{
					seed: seed, seconds: 0.4, traced: traced, daemon: daemon,
					dir: t.TempDir(), sizes: tinySizes,
					setup: newSetupRecord("..", name, seed, 0.4, traced),
				}
				rep, err := workloads[name](e)
				if err != nil {
					t.Fatalf("%s seed %d traced %t: %v", name, seed, traced, err)
				}
				res, err := rep.result(traced)
				if err != nil {
					t.Fatalf("%s seed %d traced %t: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced %t: correct=%t failed %d of %d\n%v",
						name, seed, traced, res.Correct, res.Failed, res.Attempted, rep.lines)
				}
			}
		}
	}
}

// TestBenchmarkFileNamesMatch keeps BENCHMARK.json and the metrics the
// runs print in step.
func TestBenchmarkFileNamesMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
