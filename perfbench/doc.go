// Command perfbench is jobgraph's benchmark. It measures the two costs
// the system's users pay: a researcher waiting for the analysis of a
// large trace (trace ingest → per-job DAG → WL kernel → spectral
// groups → labels), and a scheduler waiting on jobgraphd for each
// job's group label.
//
// Run it from the repository root:
//
//	sh perfbench/run.sh --workload ingest --seed 1 --seconds 28 --trace 0
//
// run.sh builds jobgraphd and the benchmark from the checkout's
// sources into .bench_build/ (the Go build cache and every temporary
// file included) and runs the benchmark. Every input is generated from
// --seed with internal/tracegen; the program sees only those inputs.
// The load comes from this one process, with one worker or client per
// CPU. The run prints a setup line (nproc, GOMAXPROCS, Go version,
// commit, source digest, seed, input sizes, daemon flags), a report
// with every metric by name and unit plus the error rate and the
// sample counts behind each percentile, and, as its last line, the
// JSON result {"correct", "attempted", "failed", "metrics"}. It exits
// non-zero without a result when it cannot run.
//
// # Workloads
//
// ingest: a 150k-job tracegen CSV (≈26 MB, ≈464k task rows, ≈66k
// eligible DAG jobs), written at setup. A pass mirrors the reproduce
// command plus labelling of the whole population: trace.OpenTable and
// trace.ReadJobsOpts (Workers = nproc), sampling.FilterParallel,
// core.Run (the paper's sample of 100, no cache), core.ExtractModel,
// and Model.Classify on every eligible job. Heavy: trace decode,
// filtering and the per-job DAG build, bulk classification. Light:
// the WL kernel and the eigen solve (n = 100). It is also the only
// workload where the double filter (before core.Run and again inside
// it) shows.
//
// cluster: four 5k-job traces (seeded apart), each through core.Run
// with a sample of 300 and ANN on (hashed WL embedder, sketch and
// LSH-index stages), then the A1/A6 ablation kernels through
// wl.KernelMatrix (h = 0..5 and the shortest-path base). Heavy: the
// Jacobi eigen solve in cluster.Spectral, all three WL refinement
// loops. Light: ingest. A top-k eigensolver or a WL merge shows here
// and should not move ingest. Four traces per pass even out the
// input-dependent sweep count of the eigensolver.
//
// serve: a jobgraphd process that boot-trains (-gen 10000 -sample
// 100) with -ann, -model, -ann-index and -journal in a scratch
// directory and keeps its default batch settings. Two clients drive it
// over loopback in a closed loop with no retries, modelling a
// scheduler that waits for the label before placing a job. Client jobs
// come from a tracegen trace seeded apart from the training trace.
// Each cycle is a whole-job POST /v1/jobs, a job streamed as two POST
// /v1/rows and a POST /v1/complete, and twelve GET /v1/similar/{job}
// for indexed jobs (one would cover the read path; twelve give its tail,
// made of rare stalls, thousands of samples). Heavy: the admission batcher's wait, the
// journal fsync and HTTP. Reads bypass the batcher, so a batcher
// change that costs reads or writes shows.
//
// # End-to-end metrics
//
// Every workload reports every metric; the operation metrics mean the
// daemon's HTTP routes on serve and the same operations as single
// in-process calls on the batch workloads.
//
//	setup_s            median of 5 set-ups: trace generation + CSV write
//	                   (ingest, cluster); of 15 boots, exec → GET
//	                   /readyz 200 with boot training (serve). Builds
//	                   are excluded.
//	pass_s             median wall time of one pass (batch); of one
//	                   client cycle (serve)
//	alloc_mb_per_pass  median TotalAlloc delta per pass (batch); the
//	                   daemon's TotalAlloc delta per cycle (serve)
//	live_heap_mb       HeapAlloc after two forced GCs (sync.Pool
//	                   contents survive one) at the end of the measured
//	                   phase: this process, holding the last pass's
//	                   outputs (batch); the daemon, as
//	                   /debug/pprof/heap?gc=1&debug=1 reports it (serve)
//	jobs_per_s         trace jobs analysed per second of pass (batch);
//	                   jobs classified per second (serve)
//	classify_p50_ms    POST /v1/jobs and /v1/complete (serve);
//	                   dag.FromTasks + Model.Classify on a job's rows (batch)
//	write_p50_ms       POST /v1/rows (serve); journal Append of a job's
//	                   rows (batch: a shared disk's fsync varies
//	                   several-fold between runs, so the Sync is timed in
//	                   serve.journal_sync_ms instead)
//
// The tails (classify_p99_ms, write_p99_ms) and the similar route
// (similar_p50_ms, similar_p99_ms) are measured by every run and
// printed in its report, but only the traced run returns them, with
// the per-layer metrics, because no bound a gate could hold covers how
// they move between runs on a shared 2-vCPU VM: over ten seeds the
// serve p99s spread 0.33-0.48 of their median (journal fsync stalls of
// 30 ms in some runs, none in others), the batch workloads' p99s up to
// 0.22, and a GET /v1/similar (≈0.15 ms, mostly an idle vCPU waking
// up) moved its median ±20% between runs of one seed.
//
// A tail is the p99 when at least 10 samples lie beyond it, otherwise
// the highest percentile that has 10 beyond it; the report names the
// percentile and the sample count. On the batch workloads a chunk of
// 2500 single operations runs between untraced passes (outside their
// timing) against the pass's model, the index core.Run builds with ANN
// and a scratch journal, so the samples spread over the whole run; as
// one call takes microseconds, a sample there is the mean of 10
// consecutive calls, so a single preemption does not decide the tail.
// On serve a similar sample is the mean of one cycle's burst of GETs.
//
// error_rate is failed / attempted, carried by the result's attempted
// and failed fields rather than as a metric (it is 0 when the code is
// right, and a relative bound on 0 means nothing). Failed are: non-2xx
// answers (429, 503 and 504 included), transport errors, and output
// checks that do not hold. The checks: Analysis.Fingerprint, the
// population label histogram and the ablation matrices are identical
// on every pass; every daemon classification equals
// core.LoadModel(model file).Classify on the same rows; every
// /v1/similar hit list equals an offline QueryJob on the saved index;
// the classified count in /v1/stats equals the clients' successes; the
// daemon drains cleanly on SIGTERM.
//
// # Per-layer metrics (--trace 1)
//
// The traced run spends half of --seconds untraced (the baseline) and
// half with spans recorded on a private obs registry around the
// benchmark's own calls into each module's public functions, kept in
// memory and exported with obs/traceexport at the end of the run
// (.bench_build/work/<workload>-seed<n>.trace.json). Layers a pass
// does not call are replayed once after each traced pass on that
// pass's outputs. On serve, one client span per request is recorded,
// named by route and a request id; the layers are then replayed
// single-threaded against the model and index files the daemon saved,
// plus one traced batch pass over its training trace.
//
//	layer metric                   should move                on
//	trace.read_ms, .rows_per_s,    pass_s, alloc_mb_per_pass  ingest (≈0 on cluster)
//	  .read_alloc_mb
//	sampling.filter_ms, _alloc_mb  pass_s                     ingest
//	core.run_ms, .run_alloc_mb     pass_s                     ingest, cluster
//	core.model_ms (ExtractModel)   pass_s                     ingest
//	core.classify_us, _allocs      pass_s (ingest);           ingest, serve
//	  (per job)                    classify_p50_ms, jobs_per_s
//	                               (serve, once batch wait
//	                               stops dominating)
//	wl.features_ms, .matrix_ms,    pass_s                     cluster (small on ingest)
//	  .ablation_ms
//	cluster.spectral_ms, _alloc_mb pass_s                     cluster (<3% of ingest)
//	dag.build_us (dag.FromTasks)   classify_p50_ms            serve
//	serve.journal_sync_ms          write_p50_ms,              serve
//	  (Append + Sync, scratch      classify_p50_ms
//	  journal beside the daemon's)
//	wl.ann_query_us (QueryJob on   similar_p50_ms             serve
//	  LoadANNIndex(index file))
//	classify_p99_ms, write_p99_ms, the operation tails and the similar
//	  similar_p50_ms, _p99_ms      route, as defined above (on serve
//	                               from the traced half of the run)
//	serve.wait_ms = classify p50   classify_p50_ms,           serve
//	  − (build + classify +        jobs_per_s
//	  2 × journal_sync)
//	serve.rejected (/v1/stats      error_rate                 serve
//	  rejected_queue_full)
//	bench.trace_overhead_pct       traced vs untraced pass_s (batch) or classify p50 (serve)
//	bench.root_self_ms             self time of the root span: a pass minus the union of its
//	                               layer spans (batch); the loop minus the union of its
//	                               overlapping request spans, i.e. time with no request in
//	                               flight (serve)
//
// wl.matrix_ms times wl.KernelMatrix, which embeds as well; on the
// batch workloads serve.wait_ms is the in-process classification's
// unattributed remainder (≈0) and serve.rejected is 0.
//
// # Shares measured on the first steady run
//
// Traced runs, seed 1, --seconds 28, on a 2-vCPU VM (go1.24, linux/amd64):
//
//	ingest   pass 2.48 s: trace.read 1247 ms (50%), sampling.filter
//	         314 ms (13%), core.run 401 ms (16%; its spectral step
//	         ≈38 ms), labelling 66k jobs at 8.4 µs ≈ 0.55 s (22%),
//	         core.model 5 ms. trace.read allocates 935 MB per pass.
//	cluster  pass 3.30 s over 4 traces, per trace: core.run 601 ms, of
//	         which cluster.spectral 533 ms (≈61% of the pass); A1/A6
//	         kernels 96 ms (11%); trace.read 40 ms (1%).
//	serve    classify p50 26.4 ms: batch wait 26.25 ms (99%), two
//	         journal syncs 0.18 ms, dag.build 4 µs, Model.Classify
//	         7 µs; 36.5 jobs/s at 2 clients; similar p50 0.14 ms.
//
// Tracing overhead was within the pass-to-pass noise (−10% to +1%).
// Out of scope, with no workload: sched, coloc and ged, and the engine
// cache's warm path.
package main
