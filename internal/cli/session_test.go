package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jobgraph/internal/ledger"
	"jobgraph/internal/obs"
	"jobgraph/internal/obs/promexport"
	"jobgraph/internal/obs/traceexport"
)

// newTestFlags builds an ObsFlags on a private flag set and parses the
// given arguments, mirroring what a command's main does with
// flag.CommandLine.
func newTestFlags(t *testing.T, args ...string) *ObsFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := RegisterObsFlagsOn(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// resetDefaultObs restores the state Start mutates on the shared
// Default registry so session tests don't leak into each other.
func resetDefaultObs(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		reg := obs.Default()
		reg.SetLogger(nil)
		reg.SetEventCapacity(0)
		reg.Reset()
	})
}

func TestSessionWritesTraceAndLedger(t *testing.T) {
	resetDefaultObs(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	ledgerPath := filepath.Join(dir, "runs", "ledger.jsonl")

	o := newTestFlags(t, "-trace-out", tracePath, "-ledger", ledgerPath)
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	if reg.EventCapacity() != DefaultEventCapacity {
		t.Fatalf("event capacity = %d, want %d", reg.EventCapacity(), DefaultEventCapacity)
	}
	sp := reg.StartSpan("pipeline")
	sp.Child("wl.matrix").End()
	sp.End()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// The trace parses as a Perfetto document carrying the run identity.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceexport.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != 2 {
		t.Fatalf("trace complete events = %d, want 2", complete)
	}
	if doc.OtherData["run_id"] != sess.Info.RunID {
		t.Fatalf("trace run_id = %q, want %q", doc.OtherData["run_id"], sess.Info.RunID)
	}

	// The ledger holds one entry matching the session.
	entries, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger entries = %d", len(entries))
	}
	e := entries[0]
	if e.RunID != sess.Info.RunID || e.Command != "testcmd" || e.ConfigHash != sess.Info.ConfigHash {
		t.Fatalf("entry identity mismatch: %+v vs %+v", e, sess.Info)
	}
	if e.WallMs <= 0 {
		t.Fatalf("wall_ms = %v", e.WallMs)
	}
	if e.Host.NumCPU <= 0 || e.Host.GoVersion == "" {
		t.Fatalf("host info missing: %+v", e.Host)
	}
	if e.Metrics.Schema != obs.SnapshotSchema {
		t.Fatalf("nested metrics schema = %q", e.Metrics.Schema)
	}
}

func TestSessionCloseIdempotent(t *testing.T) {
	resetDefaultObs(t)
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	o := newTestFlags(t, "-ledger", ledgerPath)
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	// Commands both defer Close and may hit it again via cleanup paths:
	// only the first call appends.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("double Close appended twice: %d entries", len(entries))
	}
	// A nil session is also safe (Start failed, defer still runs).
	var nilSess *RunSession
	if err := nilSess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionWithoutOutputsIsQuiet(t *testing.T) {
	resetDefaultObs(t)
	o := newTestFlags(t)
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	// No -trace-out → event retention stays disabled (hot path cheap).
	if got := obs.Default().EventCapacity(); got != 0 {
		t.Fatalf("event capacity = %d without -trace-out", got)
	}
	if sess.Info.RunID == "" || len(sess.Info.RunID) != 16 {
		t.Fatalf("run id = %q", sess.Info.RunID)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionDebugServer(t *testing.T) {
	resetDefaultObs(t)
	o := newTestFlags(t, "-debug-addr", "localhost:0")
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	if sess.closeDebug == nil {
		t.Fatal("debug server not started")
	}
	if sess.DebugAddr == "" || strings.HasSuffix(sess.DebugAddr, ":0") {
		t.Fatalf("DebugAddr = %q, want a resolved port", sess.DebugAddr)
	}

	// /metrics serves valid Prometheus text exposition while running.
	obs.Default().Counter("session.test_counter").Add(7)
	res, err := http.Get("http://" + sess.DebugAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if !strings.Contains(string(body), "jobgraph_session_test_counter_total 7") {
		t.Fatalf("/metrics missing counter:\n%.400s", body)
	}
	if err := promexport.Check(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint:\n%v", err)
	}

	// /progress serves the progress schema.
	res, err = http.Get("http://" + sess.DebugAddr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), obs.ProgressSchema) {
		t.Fatalf("/progress = %.200s", body)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionProfileCapture(t *testing.T) {
	resetDefaultObs(t)
	dir := filepath.Join(t.TempDir(), "profiles")
	o := newTestFlags(t, "-profile-dir", dir)
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0.0
	for i := 0; i < 1e6; i++ {
		x += float64(i % 7)
	}
	_ = x
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		path := filepath.Join(dir, sess.Info.RunID+suffix)
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", suffix, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", suffix)
		}
	}
}

func TestSessionRuntimeSampler(t *testing.T) {
	resetDefaultObs(t)
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	o := newTestFlags(t, "-ledger", ledgerPath)
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger entries = %d", len(entries))
	}
	if g := entries[0].Metrics.Gauges["runtime.goroutines"]; g < 1 {
		t.Errorf("ledger runtime.goroutines = %d, want >= 1", g)
	}
}

func TestConfigHashDeterministic(t *testing.T) {
	mk := func(args ...string) string {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		RegisterObsFlagsOn(fs)
		fs.Int("gen", 2000, "")
		fs.Int64("seed", 1, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return configHash(fs)
	}
	a, b := mk("-gen", "500"), mk("-gen", "500")
	if a != b {
		t.Fatalf("same config hashed differently: %s vs %s", a, b)
	}
	if c := mk("-gen", "501"); c == a {
		t.Fatal("different config collided")
	}
	// Flag order on the command line doesn't matter: VisitAll is sorted.
	if d := mk("-seed", "2", "-gen", "500"); d != mk("-gen", "500", "-seed", "2") {
		t.Fatal("argument order changed the hash")
	}
	if configHash(nil) != "" {
		t.Fatal("nil flag set should hash empty")
	}
}

func TestConfigHashSkipsOutputPaths(t *testing.T) {
	mk := func(args ...string) string {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		RegisterObsFlagsOn(fs)
		fs.Int("gen", 2000, "")
		fs.String("out", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return configHash(fs)
	}
	base := mk()
	for _, tc := range []struct {
		flag string
		same bool
	}{
		{"out", true},
		{"ledger", true},
		{"trace-out", true},
		{"profile-dir", true},
		{"flight-dir", true},
		{"gen", false},
	} {
		val := "/elsewhere/x"
		if tc.flag == "gen" {
			val = "501"
		}
		if got := mk("-"+tc.flag, val); (got == base) != tc.same {
			t.Errorf("-%s %s: hash %s vs default %s, want same=%v", tc.flag, val, got, base, tc.same)
		}
	}
}

func TestRunIDsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := newRunID()
		if seen[id] {
			t.Fatalf("duplicate run id %s", id)
		}
		seen[id] = true
	}
}

func TestSessionStartedAtIsRecent(t *testing.T) {
	resetDefaultObs(t)
	o := newTestFlags(t)
	sess, err := o.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if d := time.Since(sess.Info.StartedAt); d < 0 || d > time.Minute {
		t.Fatalf("StartedAt skewed by %v", d)
	}
}
