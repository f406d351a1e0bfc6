package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// sizes are the workloads' input sizes. fullSizes is what the
// benchmark measures; tests shrink it.
type sizes struct {
	ingestJobs, ingestSample   int
	clusterJobs, clusterSample int
	// clusterTraces is how many traces one cluster pass analyses.
	clusterTraces int
	// serveTrainJobs and serveSample are the daemon's -gen and -sample.
	serveTrainJobs, serveSample int
	// serveClientJobs is the size of the client trace the requests
	// are drawn from (seeded apart from the training trace).
	serveClientJobs int
	// similarPerCycle is how many GET /v1/similar one cycle sends.
	similarPerCycle int
	// probeOps is how many jobs the single-threaded operation probe
	// builds, classifies, journals and queries: per untraced pass on
	// the batch workloads, once on serve.
	probeOps int
	// setupRepeats is how often a batch workload's setup runs, and
	// serveBoots how often the daemon boots; setup_s is the median.
	// A boot is short and noisy, so it repeats more often.
	setupRepeats, serveBoots int
	// minPasses is the least number of passes a batch phase makes,
	// however short the measured phase.
	minPasses int
}

var fullSizes = sizes{
	ingestJobs: 150000, ingestSample: 100,
	clusterJobs: 5000, clusterSample: 300, clusterTraces: 4,
	serveTrainJobs: 10000, serveSample: 100,
	serveClientJobs: 6000,
	similarPerCycle: 12,
	probeOps:        2500,
	setupRepeats:    5,
	serveBoots:      15,
	minPasses:       3,
}

// setupRecord is the measurement setup, printed with every run.
type setupRecord struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Platform     string         `json:"platform"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Inputs       map[string]int `json:"inputs"`
	DaemonFlags  []string       `json:"daemon_flags,omitempty"`
}

func newSetupRecord(repo, workload string, seed int64, seconds float64, traced bool) *setupRecord {
	return &setupRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commitOf(repo), SourceSHA256: sourceDigest(repo),
		Inputs: map[string]int{},
	}
}

// commitOf returns the checkout's git commit, or "none" outside a git
// work tree (the source digest still identifies the code).
func commitOf(repo string) string {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every Go source and
// go.mod under repo, skipping hidden directories (.git, .bench_build), so two
// runs of the same code carry the same digest with or without git.
func sourceDigest(repo string) string {
	var files []string
	err := filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != repo && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(repo, p)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
