package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/obs"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
)

// Training a model is the expensive part of every server test; do it
// once per test binary.
var (
	trainOnce  sync.Once
	trainedM   *core.Model
	trainJobs  []trace.Job
	trainError error
)

func testModel(t *testing.T) (*core.Model, []trace.Job) {
	t.Helper()
	trainOnce.Do(func() {
		jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(1500, 7))
		if err != nil {
			trainError = err
			return
		}
		cfg := core.DefaultConfig(2*8*24*3600, 7)
		cfg.SampleSize = 40
		an, err := core.Run(jobs, cfg)
		if err != nil {
			trainError = err
			return
		}
		m, err := core.ExtractModel(an, cfg.Conflate)
		if err != nil {
			trainError = err
			return
		}
		// Keep only jobs with real dependency structure: generated
		// traces include plenty of all-independent jobs whose DAGs are
		// empty, and the serving tests want non-trivial classifications.
		var withDAGs []trace.Job
		for _, job := range jobs {
			g, err := (&Server{}).buildGraph(job.Name, job.Tasks)
			if err == nil && g.Size() >= 3 {
				withDAGs = append(withDAGs, job)
			}
			if len(withDAGs) >= 32 {
				break
			}
		}
		if len(withDAGs) < 16 {
			trainError = fmt.Errorf("only %d generated jobs have DAGs", len(withDAGs))
			return
		}
		trainedM, trainJobs = m, withDAGs
	})
	if trainError != nil {
		t.Fatalf("training model: %v", trainError)
	}
	return trainedM, trainJobs
}

// newTestServer builds a server on a fresh registry with small batches.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	m, _ := testModel(t)
	cfg := Config{
		Model:       m,
		JournalPath: filepath.Join(t.TempDir(), "serve.journal"),
		Registry:    obs.NewRegistry(),
		Batch:       BatcherConfig{BatchSize: 8},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerClassifyWholeJob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, jobs := testModel(t)

	job := jobs[0]
	resp, body := postJSON(t, ts.URL+"/v1/jobs", jobRequest{Name: job.Name, Tasks: job.Tasks})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad result JSON: %v: %s", err, body)
	}
	if res.Job != job.Name || res.Group == "" || res.Score < 0 || res.Score > 1 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Size <= 0 {
		t.Fatalf("result lost graph size: %+v", res)
	}
}

func TestServerRowsThenComplete(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, jobs := testModel(t)
	job := jobs[1]

	// Stream the job's rows in two halves, then complete it.
	half := len(job.Tasks) / 2
	if half == 0 {
		half = len(job.Tasks)
	}
	for _, chunk := range [][]trace.TaskRecord{job.Tasks[:half], job.Tasks[half:]} {
		if len(chunk) == 0 {
			continue
		}
		resp, body := postJSON(t, ts.URL+"/v1/rows", rowsRequest{Rows: chunk})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("rows status %d: %s", resp.StatusCode, body)
		}
		var acc rowsAccepted
		if err := json.Unmarshal(body, &acc); err != nil || acc.Accepted != len(chunk) {
			t.Fatalf("rows ack wrong: %+v (%v): %s", acc, err, body)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/complete", completeRequest{Job: job.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete status %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil || res.Job != job.Name {
		t.Fatalf("complete result: %+v (%v)", res, err)
	}

	// Completing again is idempotent: same recorded result, not an error.
	resp2, body2 := postJSON(t, ts.URL+"/v1/complete", completeRequest{Job: job.Name})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-complete status %d: %s", resp2.StatusCode, body2)
	}
	var res2 Result
	if err := json.Unmarshal(body2, &res2); err != nil || res2.Group != res.Group || res2.Score != res.Score {
		t.Fatalf("re-complete disagrees: %+v vs %+v", res2, res)
	}

	// Completing a job nobody sent rows for is a 404.
	resp3, _ := postJSON(t, ts.URL+"/v1/complete", completeRequest{Job: "j_never_seen"})
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown complete status %d, want 404", resp3.StatusCode)
	}

	if st := s.Stats(); st.Classified != 1 || st.AcceptedRows != int64(len(job.Tasks)) {
		t.Fatalf("stats off: %+v", st)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		path string
		body string
	}{
		{"/v1/rows", `{"rows":[]}`},
		{"/v1/rows", `{"rows":[{"TaskName":"t1"}]}`}, // empty job name
		{"/v1/jobs", `{"name":"","tasks":[]}`},
		{"/v1/complete", `{"job":""}`},
		{"/v1/jobs", `{not json`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %q: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}

// Saturating the admission queue must yield 429 + Retry-After: 1, and a
// client that retries must eventually land every request.
func TestServerBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		// BatchSize 1 serializes flushes (each one classifies), QueueDepth
		// 2 makes the queue trivially saturable by 24 concurrent posts.
		c.Batch = BatcherConfig{BatchSize: 1, QueueDepth: 2}
	})
	// On a fast machine the admission loop can classify a tiny job
	// quicker than the HTTP stack delivers the next post, so the queue
	// would never fill. Interpose a batcher whose flush holds the loop
	// long enough that concurrent posts deterministically pile up.
	inner := s.batcher
	s.batcher = newBatcher(inner.cfg, func(ops []*op) {
		time.Sleep(2 * time.Millisecond)
		inner.flush(ops)
	})
	t.Cleanup(inner.Close) // s.Drain closes the wrapper
	_, jobs := testModel(t)
	job := jobs[2]

	const n = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	saw429 := 0
	succeeded := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(jobRequest{Name: fmt.Sprintf("%s-copy%d", job.Name, i), Tasks: job.Tasks})
			for attempt := 0; attempt < 200; attempt++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					mu.Lock()
					succeeded++
					mu.Unlock()
					return
				case http.StatusTooManyRequests:
					if ra := resp.Header.Get("Retry-After"); ra != "1" {
						t.Errorf("429 with Retry-After %q, want 1", ra)
						return
					}
					mu.Lock()
					saw429++
					mu.Unlock()
					time.Sleep(2 * time.Millisecond)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
			t.Error("request never succeeded")
		}(i)
	}
	wg.Wait()
	if succeeded != n {
		t.Fatalf("%d/%d requests succeeded", succeeded, n)
	}
	if saw429 == 0 {
		t.Fatal("queue never saturated: no 429 observed")
	}
	t.Logf("saw %d 429s across %d requests", saw429, n)
}

// Rows accepted but never completed must survive a drain/restart cycle
// via journal compaction, and a job completed before the "crash" (journal
// carries rows+complete but no result) must be classified exactly once
// at boot.
func TestServerDrainAndReplay(t *testing.T) {
	m, jobs := testModel(t)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "serve.journal")
	pendingJob, doneJob := jobs[3], jobs[4]

	cfg := Config{
		Model:       m,
		JournalPath: jpath,
		Registry:    obs.NewRegistry(),
		Batch:       BatcherConfig{BatchSize: 8},
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())

	// pendingJob: rows only. doneJob: classified normally.
	resp, body := postJSON(t, ts.URL+"/v1/rows", rowsRequest{Rows: pendingJob.Tasks})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rows: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", jobRequest{Name: doneJob.Name, Tasks: doneJob.Tasks})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs: %d %s", resp.StatusCode, body)
	}
	var firstRes Result
	if err := json.Unmarshal(body, &firstRes); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := s1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The compacted journal holds only pendingJob's rows (plus markers):
	// simulate the crash window by appending a complete for pendingJob
	// with no result, as if the daemon died mid-classification.
	j, recs, truncated, err := OpenJournal(jpath)
	if err != nil || truncated {
		t.Fatalf("reopen journal: %v truncated=%v", err, truncated)
	}
	rowCount := 0
	for _, r := range recs {
		if r.Op == OpRow {
			if r.Job != pendingJob.Name {
				t.Fatalf("compacted journal kept row for %s", r.Job)
			}
			rowCount++
		}
		if r.Op == OpResult {
			t.Fatalf("compacted journal kept a result record")
		}
	}
	if rowCount != len(pendingJob.Tasks) {
		t.Fatalf("compacted journal has %d rows, want %d", rowCount, len(pendingJob.Tasks))
	}
	if err := j.Append(Record{Op: OpComplete, Seq: j.NextSeq(), Job: pendingJob.Name}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": boot a second server on the same journal. Replay must
	// classify pendingJob exactly once.
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Drain()
	replayed := s2.Replayed()
	if len(replayed) != 1 || replayed[0].Job != pendingJob.Name || !replayed[0].Replayed {
		t.Fatalf("replay produced %+v, want one result for %s", replayed, pendingJob.Name)
	}
	want, wantScore, err := m.Classify(mustGraph(t, pendingJob))
	if err != nil {
		t.Fatal(err)
	}
	if replayed[0].Group != want.Name || replayed[0].Score != wantScore {
		t.Fatalf("replayed result %s/%v differs from direct classification %s/%v",
			replayed[0].Group, replayed[0].Score, want.Name, wantScore)
	}

	// A third boot sees the result record and does NOT classify again.
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	// Drain compacts pending-only state; pendingJob was classified, so
	// the journal is now empty of rows and a restart replays nothing.
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Drain()
	if got := s3.Replayed(); len(got) != 0 {
		t.Fatalf("third boot replayed %+v, want nothing", got)
	}
	if st := s3.Stats(); st.Pending != 0 {
		t.Fatalf("third boot has %d pending jobs", st.Pending)
	}
}

// mustGraph builds the classification-side DAG for a whole job, the
// same way the server's classify path does.
func mustGraph(t *testing.T, job trace.Job) *dag.Graph {
	t.Helper()
	g, err := (&Server{}).buildGraph(job.Name, job.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestServerStatsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Schema != StatsSchema || st.ModelGroups == 0 {
		t.Fatalf("stats: %+v", st)
	}

	// /metrics exposes the serve counters in Prometheus text format.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("serve_")) {
		t.Fatalf("metrics: %d %.200s", resp.StatusCode, body)
	}

	// Draining flips readiness.
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	s.draining.Store(false)
}

func TestServerModelReload(t *testing.T) {
	m, _ := testModel(t)
	reloads := 0
	s, ts := newTestServer(t, func(c *Config) {
		c.Reload = func(ctx context.Context) (*core.Model, error) {
			reloads++
			return m, nil
		}
	})
	old := s.Model()
	resp, body := postJSON(t, ts.URL+"/model/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	if reloads != 1 {
		t.Fatalf("reload ran %d times", reloads)
	}
	_ = old
}

func TestServerReloadUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := postJSON(t, ts.URL+"/model/reload", struct{}{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without source: %d, want 501", resp.StatusCode)
	}
}

// Hot-swapping the model while classifications are in flight must be
// race-free (run under -race) and every response must come from a
// coherent model.
func TestServerConcurrentHotSwap(t *testing.T) {
	m, jobs := testModel(t)
	s, ts := newTestServer(t, nil)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.SwapModel(m)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := jobs[i%8]
			for n := 0; n < 10; n++ {
				body, _ := json.Marshal(jobRequest{Name: fmt.Sprintf("%s-swap%d-%d", job.Name, i, n), Tasks: job.Tasks})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %.120s", resp.StatusCode, data)
					return
				}
				var res Result
				if err := json.Unmarshal(data, &res); err != nil || res.Group == "" {
					t.Errorf("bad result under swap: %v %.120s", err, data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}

func TestServerWorkersHeartbeatIdleBetweenBatches(t *testing.T) {
	// An idle daemon must not look stalled: the serve.workers heartbeat
	// is active only while a flush runs, so the watchdog's
	// heartbeat-stall check skips it between batches no matter how long
	// the daemon sits with no traffic.
	s, ts := newTestServer(t, nil)
	_, jobs := testModel(t)
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"name": "hb_job", "tasks": jobs[0].Tasks})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var st *obs.HeartbeatState
		for _, hb := range s.reg.HeartbeatStates() {
			if hb.Name == "serve.workers" {
				hb := hb
				st = &hb
			}
		}
		if st != nil && st.Beats > 0 && !st.Active {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve.workers heartbeat not idle after the flush: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A long-running daemon remembers a bounded window of results: past
// 3×resultWindow jobs the two generations never hold more than
// 2×resultWindow, the newest resultWindow re-complete idempotently, and
// after a stop without drain the compacted journal replays to the same
// knowledge without classifying anything twice.
func TestServerResultWindowBounded(t *testing.T) {
	m, jobs := testModel(t)
	cfg := Config{
		Model:       m,
		JournalPath: filepath.Join(t.TempDir(), "serve.journal"),
		Registry:    obs.NewRegistry(),
		Batch:       BatcherConfig{BatchSize: 8},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sample the maps after every flush, on the flush goroutine itself.
	maxHeld := 0 // read only after the batcher has stopped
	inner := s.batcher
	s.batcher = newBatcher(inner.cfg, func(ops []*op) {
		s.flush(ops)
		if n := len(s.classified) + len(s.prevClassified); n > maxHeld {
			maxHeld = n
		}
	})
	inner.Close()
	ts := httptest.NewServer(s.Handler())

	const total = 3*resultWindow + resultWindow/2
	name := func(i int) string { return fmt.Sprintf("win-%05d", i) }
	post := func(i int) Result {
		body, _ := json.Marshal(jobRequest{Name: name(i), Tasks: jobs[i%len(jobs)].Tasks})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("post %s: %v", name(i), err)
			return Result{}
		}
		defer resp.Body.Close()
		var res Result
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&res) != nil {
			t.Errorf("post %s: status %d", name(i), resp.StatusCode)
		}
		return res
	}
	// The bulk goes in concurrently; the newest resultWindow jobs go in
	// one at a time so their classification order is known.
	bulk := total - resultWindow
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				post(i)
			}
		}()
	}
	for i := 0; i < bulk; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	newest := make(map[string]Result, resultWindow)
	for i := bulk; i < total; i++ {
		newest[name(i)] = post(i)
	}
	if t.Failed() {
		t.FailNow()
	}

	recomplete := func(url string, i int) Result {
		t.Helper()
		resp, body := postJSON(t, url+"/v1/complete", completeRequest{Job: name(i)})
		var res Result
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil {
			t.Fatalf("re-complete %s: %d %s", name(i), resp.StatusCode, body)
		}
		return res
	}
	probes := []int{bulk, bulk + 1, bulk + resultWindow/2, total - 1}
	for _, i := range probes {
		if got, want := recomplete(ts.URL, i), newest[name(i)]; got != want {
			t.Fatalf("re-complete %s = %+v, want recorded %+v", name(i), got, want)
		}
	}
	if got := s.Stats().Classified; got != total {
		t.Fatalf("classified %d jobs, want %d", got, total)
	}

	// Stop without Drain: the journal is left as online compaction and
	// appends made it, as after a kill -9.
	ts.Close()
	s.batcher.Close()
	if maxHeld > 2*resultWindow {
		t.Fatalf("result maps held %d entries, bound is %d", maxHeld, 2*resultWindow)
	}
	if maxHeld < resultWindow {
		t.Fatalf("result maps peaked at %d entries; the window never filled", maxHeld)
	}
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	j, recs, _, err := OpenJournal(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	results := 0
	for _, r := range recs {
		if r.Op == OpResult {
			results++
		}
	}
	if results > 3*resultWindow {
		t.Fatalf("journal holds %d results after %d jobs; online compaction did not bound it", results, total)
	}

	cfg.Registry = obs.NewRegistry()
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if st := s2.Stats(); len(s2.Replayed()) != 0 || st.ReplayClassify != 0 || st.Pending != 0 {
		t.Fatalf("replay classified %d jobs (%+v), want none", len(s2.Replayed()), st)
	}
	for _, i := range probes {
		got, want := recomplete(ts2.URL, i), newest[name(i)]
		if got.Group != want.Group || got.Score != want.Score {
			t.Fatalf("after restart re-complete %s = %s/%v, want %s/%v", name(i), got.Group, got.Score, want.Group, want.Score)
		}
	}
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := len(s2.classified) + len(s2.prevClassified); n > 2*resultWindow {
		t.Fatalf("replayed result maps hold %d entries, bound is %d", n, 2*resultWindow)
	}
}
