package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jobgraph/internal/cli"
	"jobgraph/internal/core"
	"jobgraph/internal/obs"
	"jobgraph/internal/sampling"
	"jobgraph/internal/serve"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

// clientSeedOffset separates the client trace's seed from the
// training trace's, so the daemon classifies jobs it never saw.
const clientSeedOffset = 1_000_003

// daemon is one running jobgraphd.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	base    string // http://host:port of the API
	debug   string // http://host:port of the debug endpoint
	exited  chan struct{}
	waitErr error
}

// daemonArgs are the flags every boot uses: boot training with the
// similarity index, model and index files, and the journal, all in dir;
// batch settings stay at their defaults.
func daemonArgs(dir string, s sizes, seed int64) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-model", filepath.Join(dir, "model.gob"),
		"-ann", "-ann-index", filepath.Join(dir, "index.gob"),
		"-journal", filepath.Join(dir, "serve.journal"),
		"-gen", strconv.Itoa(s.serveTrainJobs), "-sample", strconv.Itoa(s.serveSample),
		"-seed", strconv.FormatInt(seed, 10),
		"-flight-dir", dir,
	}
}

// bootTimeout bounds one boot (training included).
const bootTimeout = 60 * time.Second

// startDaemon execs bin in dir and returns once GET /readyz answers
// 200, with the time from exec to ready.
func startDaemon(bin, dir string, args []string) (*daemon, time.Duration, error) {
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: exec.Command(bin, args...), dir: dir, exited: make(chan struct{})}
	d.cmd.Dir = dir
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	// Sized to the two announcements the scanner looks for.
	addrs := make(chan [2]string, 2)
	guardChild(d.cmd)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		defer close(d.exited)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			for _, key := range []string{"jobgraphd listening on http://", "debug server listening on http://"} {
				if _, rest, ok := strings.Cut(line, key); ok && rest != "" {
					hostport, _, _ := strings.Cut(strings.Fields(rest)[0], "/")
					select {
					case addrs <- [2]string{key, "http://" + hostport}:
					default: // an unexpected repeat; the first one stands
					}
				}
			}
		}
		d.waitErr = d.cmd.Wait()
	}()

	timeout := time.After(bootTimeout)
	for d.base == "" || d.debug == "" {
		select {
		case a := <-addrs:
			if strings.HasPrefix(a[0], "jobgraphd") {
				d.base = a[1]
			} else {
				d.debug = a[1]
			}
		case <-d.exited:
			return nil, 0, fmt.Errorf("jobgraphd exited during boot (%v); see %s", d.waitErr, logf.Name())
		case <-timeout:
			d.stop()
			return nil, 0, fmt.Errorf("jobgraphd not listening after %v", bootTimeout)
		}
	}
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > bootTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("jobgraphd not ready after %v", bootTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 30 s) and waits
// for it to exit; the error is the exit status.
func (d *daemon) stop() error {
	// An error means the process has exited already; exited says so.
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return d.waitErr
}

// Request bodies, as internal/serve decodes them.
type jobBody struct {
	Name  string             `json:"name"`
	Tasks []trace.TaskRecord `json:"tasks"`
}
type rowsBody struct {
	Rows []trace.TaskRecord `json:"rows"`
}
type completeBody struct {
	Job string `json:"job"`
}
type rowsReply struct {
	Accepted int      `json:"accepted"`
	Jobs     []string `json:"jobs"`
}

// send makes one request and returns the body of a 2xx answer. Any
// other status (429, 503 and 504 included) and any transport error is
// an error: the client never retries.
func send(c *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return data, nil
}

// getJSON fetches url and decodes its 2xx JSON body into out.
func getJSON(c *http.Client, url string, out any) error {
	data, err := send(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// clientJob is one job the clients send, with the classification the
// saved model gives its rows offline: the answer the daemon must give.
type clientJob struct {
	job   trace.Job
	group string
	score float64
	size  int
}

// op is one request as the client saw it.
type op struct {
	route string // jobs, rows, complete or similar
	dur   time.Duration
	ok    bool
}

// loop drives the daemon in a closed loop: each client sends its next
// request only when the previous one has answered.
type loop struct {
	c       *http.Client
	base    string
	clients int
	pool    []clientJob
	simIDs  []string
	simWant map[string][]serve.SimilarHit
	simPer  int
	tag     string // keeps job names unique across loops
	tr      *tracer
	root    *obs.Span
}

// clientOut is one client's record of a loop.
type clientOut struct {
	ops    []op
	cycles []time.Duration
}

// run drives every client until d has elapsed and returns their ops.
func (l *loop) run(d time.Duration) ([]op, []time.Duration, time.Duration) {
	outs := make([]clientOut, l.clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < l.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			l.client(k, deadline, &outs[k])
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	var ops []op
	var cycles []time.Duration
	for _, o := range outs {
		ops = append(ops, o.ops...)
		cycles = append(cycles, o.cycles...)
	}
	return ops, cycles, wall
}

func (l *loop) client(k int, deadline time.Time, out *clientOut) {
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		l.cycle(k, cycle, out)
	}
}

// cycle sends client k's cycle-th round of requests.
func (l *loop) cycle(k, cycle int, out *clientOut) {
	cs := time.Now()
	i := 2 * (cycle*l.clients + k)
	a, b := l.pool[i%len(l.pool)], l.pool[(i+1)%len(l.pool)]
	id := fmt.Sprintf("%s.c%d.%d", l.tag, k, cycle)

	// A whole job in one request.
	nameA := a.job.Name + "." + id + "a"
	body, _ := json.Marshal(jobBody{Name: nameA, Tasks: renamed(a.job.Tasks, nameA)})
	l.call(out, "jobs", id, http.MethodPost, "/v1/jobs", body, func(data []byte) bool {
		return resultMatches(data, nameA, a)
	})

	// A job streamed as two row batches, then completed.
	nameB := b.job.Name + "." + id + "b"
	rows := renamed(b.job.Tasks, nameB)
	half := len(rows) / 2
	for _, part := range [][]trace.TaskRecord{rows[:half], rows[half:]} {
		body, _ := json.Marshal(rowsBody{Rows: part})
		n := len(part)
		l.call(out, "rows", id, http.MethodPost, "/v1/rows", body, func(data []byte) bool {
			var r rowsReply
			return json.Unmarshal(data, &r) == nil && r.Accepted == n
		})
	}
	body, _ = json.Marshal(completeBody{Job: nameB})
	l.call(out, "complete", id, http.MethodPost, "/v1/complete", body, func(data []byte) bool {
		return resultMatches(data, nameB, b)
	})

	// Similar jobs for indexed jobs: the read path beside the batcher.
	// It is fast and its tail is made of rare stalls, so a cycle sends
	// several to give the tail thousands of samples.
	for s := 0; s < l.simPer; s++ {
		sid := l.simIDs[((cycle*l.clients+k)*l.simPer+s)%len(l.simIDs)]
		l.call(out, "similar", id, http.MethodGet, "/v1/similar/"+sid, nil, func(data []byte) bool {
			var r serve.SimilarResponse
			return json.Unmarshal(data, &r) == nil && r.Job == sid && hitsEqual(r.Hits, l.simWant[sid])
		})
	}
	out.cycles = append(out.cycles, time.Since(cs))
}

// call sends one request and records it in out. The request is timed
// (and, when tracing, wrapped in a client span named by route and a
// request id unique in the run); its answer is checked after timing.
func (l *loop) call(out *clientOut, route, id, method, path string, body []byte, check func([]byte) bool) {
	var sp *obs.Span
	if l.tr != nil {
		sp = l.root.Child(fmt.Sprintf("%s %s.%d", route, id, len(out.ops)))
	}
	start := time.Now()
	data, err := send(l.c, method, l.base+path, body)
	dur := time.Since(start)
	sp.End()
	out.ops = append(out.ops, op{route: route, dur: dur, ok: err == nil && check(data)})
}

// renamed copies rows under a new job name.
func renamed(rows []trace.TaskRecord, name string) []trace.TaskRecord {
	out := make([]trace.TaskRecord, len(rows))
	for i, r := range rows {
		r.JobName = name
		r.JobSym = 0
		r.TaskSym = 0
		out[i] = r
	}
	return out
}

// resultMatches checks a classification answer against the offline
// classification of the same rows.
func resultMatches(data []byte, name string, want clientJob) bool {
	var r serve.Result
	if json.Unmarshal(data, &r) != nil {
		return false
	}
	return r.Job == name && r.Group == want.group && r.Score == want.score && r.Size == want.size
}

func hitsEqual(got, want []serve.SimilarHit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// loopStats summarises a loop's ops.
type loopStats struct {
	classify, write, similar []float64 // ms, successful requests only
	classified               int64
}

// summarise counts every op in rep and collects the successful ones'
// latencies by route.
func summarise(rep *report, ops []op) loopStats {
	var st loopStats
	for _, o := range ops {
		rep.count(o.ok)
		if !o.ok {
			continue
		}
		switch o.route {
		case "jobs", "complete":
			st.classify = append(st.classify, ms(o.dur))
			st.classified++
		case "rows":
			st.write = append(st.write, ms(o.dur))
		case "similar":
			st.similar = append(st.similar, ms(o.dur))
		}
	}
	return st
}

// memstats is the slice of expvar's memstats the benchmark reads.
type memstats struct {
	Memstats struct {
		TotalAlloc uint64
	} `json:"memstats"`
}

func runServe(e *env) (*report, error) {
	if e.daemon == "" {
		return nil, fmt.Errorf("the serve workload needs -daemon")
	}
	rep := newReport()
	s := e.sizes
	var setups []float64
	var d *daemon
	for r := 0; r < s.serveBoots; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("setup: jobgraphd exit: %w", err)
			}
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("boot%d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		args := daemonArgs(dir, s, e.seed)
		var took time.Duration
		var err error
		if d, took, err = startDaemon(e.daemon, dir, args); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		e.setup.DaemonFlags = args
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	rep.set("setup_s", median(setups))
	e.setup.Inputs["train_jobs"] = s.serveTrainJobs
	e.setup.Inputs["sample"] = s.serveSample
	e.setup.Inputs["clients"] = workers()

	model, err := core.LoadModel(filepath.Join(d.dir, "model.gob"))
	if err != nil {
		return nil, err
	}
	ix, err := loadIndex(filepath.Join(d.dir, "index.gob"))
	if err != nil {
		return nil, err
	}
	pool, err := clientPool(model, s.serveClientJobs, e.seed+clientSeedOffset)
	if err != nil {
		return nil, err
	}
	e.setup.Inputs["client_trace_jobs"] = s.serveClientJobs
	e.setup.Inputs["client_pool_jobs"] = len(pool)
	simIDs := ix.JobIDs()
	simWant := make(map[string][]serve.SimilarHit, len(simIDs))
	for _, id := range simIDs {
		hits, err := ix.QueryJob(id, similarK)
		if err != nil {
			return nil, err
		}
		for _, h := range hits {
			simWant[id] = append(simWant[id], serve.SimilarHit{Job: h.JobID, Similarity: h.Similarity})
		}
	}

	tp := &http.Transport{MaxIdleConnsPerHost: workers(), MaxConnsPerHost: workers(), DisableCompression: true}
	defer tp.CloseIdleConnections()
	c := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	var before serve.Stats
	if err := getJSON(c, d.base+"/v1/stats", &before); err != nil {
		return nil, err
	}
	var m0 memstats
	if err := getJSON(c, d.debug+"/debug/vars", &m0); err != nil {
		return nil, err
	}

	l := &loop{c: c, base: d.base, clients: workers(), pool: pool, simIDs: simIDs, simWant: simWant, simPer: s.similarPerCycle, tag: "u"}
	ops, cycles, wall := l.run(e.measured())
	base := summarise(rep, ops)
	rep.notef("untraced loop: %d cycles in %.2f s, %d classify, %d write, %d similar samples",
		len(cycles), wall.Seconds(), len(base.classify), len(base.write), len(base.similar))
	classified := base.classified

	if !e.traced {
		var m1 memstats
		if err := getJSON(c, d.debug+"/debug/vars", &m1); err != nil {
			return nil, err
		}
		heap, err := daemonHeap(c, d.debug)
		if err != nil {
			return nil, err
		}
		var cyc []float64
		for _, cd := range cycles {
			cyc = append(cyc, cd.Seconds())
		}
		rep.set("pass_s", median(cyc))
		rep.set("alloc_mb_per_pass", mb(m1.Memstats.TotalAlloc-m0.Memstats.TotalAlloc)/float64(len(cycles)))
		rep.set("live_heap_mb", mb(heap))
		rep.set("jobs_per_s", float64(base.classified)/wall.Seconds())
		rep.setTail("classify", base.classify)
		rep.setTail("write", base.write)
		rep.setTail("similar", blockMeans(base.similar, s.similarPerCycle))
	} else {
		l.tr, l.tag = newTracer(false), "t"
		l.root = l.tr.start(nil, "serve.loop")
		ops, _, _ := l.run(e.measured())
		l.root.End()
		traced := summarise(rep, ops)
		classified += traced.classified
		rep.setTail("classify", traced.classify)
		rep.setTail("write", traced.write)
		// A GET /v1/similar takes a fraction of a millisecond, so its
		// tail is one scheduler wake-up; a sample is the mean of one
		// cycle's burst of GETs.
		rep.setTail("similar", blockMeans(traced.similar, s.similarPerCycle))
		layers, err := serveLayers(e, rep, d, model, ix, pool)
		if err != nil {
			return nil, err
		}
		tp50, bp50 := median(traced.classify), median(base.classify)
		rep.set("serve.wait_ms", tp50-(median(layers.probe.build)+median(layers.probe.classify)+2*median(layers.probe.sync)))
		rep.set("bench.trace_overhead_pct", 100*(tp50-bp50)/bp50)
		rep.set("bench.root_self_ms", l.tr.rootSelfMS("serve.loop"))
		rep.notef("traced loop: classify p50 %.4f ms (untraced %.4f ms)", tp50, bp50)
		if err := exportTrace(e, l.tr, layers.tr); err != nil {
			return nil, err
		}
	}

	var after serve.Stats
	if err := getJSON(c, d.base+"/v1/stats", &after); err != nil {
		return nil, err
	}
	statsOK := after.Classified-before.Classified == classified
	rep.count(statsOK)
	if !statsOK {
		rep.notef("/v1/stats classified %d jobs, the clients saw %d", after.Classified-before.Classified, classified)
	}
	if e.traced {
		rep.set("serve.rejected", float64(after.RejectedFull-before.RejectedFull))
	}
	stopped = true
	err = d.stop()
	rep.count(err == nil)
	if err != nil {
		rep.notef("jobgraphd did not drain cleanly: %v", err)
	}
	return rep, nil
}

// daemonHeap returns the daemon's HeapAlloc right after a forced
// collection, as the text heap profile reports it: that handler runs
// runtime.GC for gc=1 and reads the MemStats before building the
// profile, so no garbage of its own is counted. The second of two
// collections is read, since objects parked in sync.Pools survive one.
func daemonHeap(c *http.Client, debug string) (uint64, error) {
	var heap uint64
	for i := 0; i < 2; i++ {
		data, err := send(c, http.MethodGet, debug+"/debug/pprof/heap?gc=1&debug=1", nil)
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(data), "\n# HeapAlloc = ")
		if !ok {
			return 0, fmt.Errorf("heap profile has no HeapAlloc line")
		}
		line, _, _ := strings.Cut(rest, "\n")
		if heap, err = strconv.ParseUint(strings.TrimSpace(line), 10, 64); err != nil {
			return 0, fmt.Errorf("heap profile HeapAlloc: %w", err)
		}
	}
	return heap, nil
}

func loadIndex(path string) (*wl.ANNIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wl.LoadANNIndex(f)
}

// clientPool generates the client trace and classifies each eligible
// job's rows offline with the saved model: the answers the daemon
// must give.
func clientPool(m *core.Model, jobs int, seed int64) ([]clientJob, error) {
	all, err := tracegen.GenerateJobs(tracegen.DefaultConfig(jobs, seed))
	if err != nil {
		return nil, err
	}
	cands, _, err := sampling.FilterParallel(all, sampling.PaperCriteria(cli.TraceWindow()), workers())
	if err != nil {
		return nil, err
	}
	pool := make([]clientJob, 0, len(cands))
	for _, cd := range cands {
		if len(cd.Job.Tasks) < 2 {
			continue
		}
		g, err := buildGraph(m, cd.Job.Name, cd.Job.Tasks)
		if err != nil {
			return nil, err
		}
		mg, score, err := m.Classify(g)
		if err != nil {
			return nil, err
		}
		pool = append(pool, clientJob{job: cd.Job, group: mg.Name, score: score, size: g.Size()})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("client trace has no eligible jobs")
	}
	return pool, nil
}

// serveLayersOut holds the serve workload's single-threaded replays.
type serveLayersOut struct {
	probe probeResult
	tr    *tracer
}

// serveLayers replays each layer single-threaded against the files
// the daemon saved: the operation probe on the client jobs (with a
// scratch journal in the daemon's directory), then one traced batch
// pass over the daemon's training trace.
func serveLayers(e *env, rep *report, d *daemon, model *core.Model, ix *wl.ANNIndex, pool []clientJob) (serveLayersOut, error) {
	var out serveLayersOut
	jobs := make([]trace.Job, len(pool))
	for i, p := range pool {
		jobs[i] = p.job
	}
	p, err := newProber(model, ix, jobs, filepath.Join(d.dir, "probe.journal"))
	if err != nil {
		return out, fmt.Errorf("probe: %w", err)
	}
	p.run(e.sizes.probeOps, e.sizes.probeOps/10)
	if out.probe, err = p.close(); err != nil {
		return out, fmt.Errorf("probe: %w", err)
	}
	out.probe.count(rep)
	out.probe.setLayerMetrics(rep)

	s := e.sizes
	b := &batch{
		spec: batchSpec{jobs: s.serveTrainJobs, sample: s.serveSample, traces: 1, ann: true, label: true},
		seed: e.seed, csvs: []string{filepath.Join(e.dir, "train.csv")}, workers: workers(),
	}
	if _, err := writeTrace(b.csvs[0], s.serveTrainJobs, e.seed); err != nil {
		return out, err
	}
	out.tr = newTracer(true)
	var want string
	ph, err := b.passes(rep, out.tr, 0, 1, &want, nil)
	if err != nil {
		return out, err
	}
	setLayerMetrics(rep, out.tr, float64(ph.last.rows))
	return out, nil
}
