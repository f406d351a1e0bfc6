# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench fuzz reproduce metrics trace ledger baseline benchdiff memprofile ann-gate cache-demo report flight-demo daemon-demo staticcheck govulncheck fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/taskname/
	$(GO) test -fuzz=FuzzReadTasks -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzLoadModel -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzLoadANNIndex -fuzztime=30s ./internal/wl/
	$(GO) test -fuzz=FuzzOpenJournal -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzGraphGobDecode -fuzztime=30s ./internal/dag/

reproduce:
	$(GO) run ./cmd/reproduce -gen 20000 -seed 1 -out results/

# Regenerate the committed results/metrics.json baseline from a small
# instrumented run and print it. The run lands in a scratch dir so the
# published fig*.csv files (full 20000-job run) stay untouched.
metrics:
	$(GO) run ./cmd/reproduce -gen 2000 -seed 1 -out /tmp/jobgraph-metrics/ >/dev/null
	cp /tmp/jobgraph-metrics/metrics.json results/metrics.json
	$(GO) run ./cmd/promlint -metrics results/metrics.json
	cat results/metrics.json

# Perfetto timeline for a small run: open results/trace.json at
# https://ui.perfetto.dev (or chrome://tracing).
trace:
	$(GO) run ./cmd/reproduce -gen 2000 -seed 1 -out /tmp/jobgraph-metrics/ -trace-out results/trace.json >/dev/null
	@echo "wrote results/trace.json — load it at https://ui.perfetto.dev"

# Append a run snapshot to the local run ledger.
ledger:
	$(GO) run ./cmd/reproduce -gen 2000 -seed 1 -out /tmp/jobgraph-metrics/ -ledger results/runs/ledger.jsonl >/dev/null
	@echo "appended to results/runs/ledger.jsonl"

# Self-contained HTML run report: append a fresh instrumented run to
# the local ledger, then render its newest entry. Open
# results/report.html in any browser — no external assets.
report:
	$(GO) run ./cmd/reproduce -gen 2000 -seed 1 -out /tmp/jobgraph-metrics/ -ledger results/runs/ledger.jsonl >/dev/null
	$(GO) run ./cmd/runreport -ledger results/runs/ledger.jsonl -out results/report.html

# Regenerate the committed perf-gate baseline ledger from a fresh
# instrumented run. CI compares PR runs against this file and fails on
# >15% per-stage wall-time regressions, so refresh it (on hardware
# comparable to the CI runner) whenever a deliberate perf change lands.
# -no-cache keeps the measured stages honest: the gate compares cold
# compute, never cache loads.
baseline:
	rm -f results/bench_baseline.jsonl
	$(GO) run ./cmd/reproduce -gen 2000 -seed 1 -no-cache -ann -out /tmp/jobgraph-bench/ -ledger results/bench_baseline.jsonl >/dev/null
	@echo "wrote results/bench_baseline.jsonl"

# Compare a fresh run against the committed baseline ledger, mirroring
# the CI perf gate: wall time AND per-stage allocation regressions.
# Warn-only locally; CI enforces on pull requests.
benchdiff:
	mkdir -p /tmp/jobgraph-bench
	cp results/bench_baseline.jsonl /tmp/jobgraph-bench/gate.jsonl
	$(GO) run ./cmd/reproduce -gen 2000 -seed 1 -no-cache -ann -out /tmp/jobgraph-bench/ -ledger /tmp/jobgraph-bench/gate.jsonl >/dev/null
	$(GO) run ./cmd/benchdiff -ledger /tmp/jobgraph-bench/gate.jsonl -threshold 0.15 -alloc-threshold 0.25 -min-ms 20 -warn-only

# Heap (and CPU) profile for a 500-sample clustering run — the standard
# workload for chasing allocation hot spots. Inspect with:
#   go tool pprof -top /tmp/jobgraph-memprofile/*.heap.pprof
memprofile:
	rm -rf /tmp/jobgraph-memprofile
	mkdir -p /tmp/jobgraph-memprofile
	$(GO) run ./cmd/clusterjobs -gen 10000 -sample 500 -seed 1 -no-cache \
		-profile-dir /tmp/jobgraph-memprofile >/dev/null
	@ls /tmp/jobgraph-memprofile/*.pprof

# Local mirror of CI's ANN gate: recall@10 against the exact kernel on
# the 100-job sample, the accuracy-vs-speed band sweep, and p50 query
# latency over a 1M-job synthetic sketch corpus.
ann-gate:
	mkdir -p /tmp/jobgraph-ann
	$(GO) run ./cmd/similarity -gen 20000 -sample 100 -seed 1 \
		-ann -topk 10 -minhash 64 -bands 32 -recall-check \
		-ann-report /tmp/jobgraph-ann/gate.json \
		-ann-csv /tmp/jobgraph-ann/accuracy_vs_speed.csv \
		-ann-scale 1000000
	jq -e '.recall_at_k >= 0.9' /tmp/jobgraph-ann/gate.json
	jq -e '.p50_query_us < 1000' /tmp/jobgraph-ann/gate.json
	@echo "ANN gate passed"

# Artifact-cache demonstration: a cold clusterjobs run populates the
# cache, a warm re-run at a different group count reuses everything up
# to the kernel matrix, and the warm output must match an uncached run
# at the new count byte-for-byte.
cache-demo:
	rm -rf /tmp/jobgraph-cache-demo
	mkdir -p /tmp/jobgraph-cache-demo
	@echo "== cold run (populates the cache) =="
	time $(GO) run ./cmd/clusterjobs -gen 6000 -seed 1 -cache-dir /tmp/jobgraph-cache-demo/cache > /tmp/jobgraph-cache-demo/cold.txt
	@echo "== warm run (-groups 4: reclusters the cached kernel matrix) =="
	time $(GO) run ./cmd/clusterjobs -gen 6000 -seed 1 -groups 4 -cache-dir /tmp/jobgraph-cache-demo/cache > /tmp/jobgraph-cache-demo/warm.txt
	@echo "== uncached reference at -groups 4 =="
	$(GO) run ./cmd/clusterjobs -gen 6000 -seed 1 -groups 4 -no-cache > /tmp/jobgraph-cache-demo/ref.txt
	diff /tmp/jobgraph-cache-demo/warm.txt /tmp/jobgraph-cache-demo/ref.txt
	@echo "warm output identical to the uncached run"

# Stall-watchdog demonstration: generate a small trace, then lint it
# through a fault-injected reader that stalls forever after 64 KiB. The
# ingest heartbeat goes silent, the 2s watchdog trips, captures
# goroutine/heap profiles plus a flight dump, and -watchdog-exit ends
# the wedged run with status 7. flightcheck then renders the dump.
# (tracecheck runs as a built binary: `go run` collapses the program's
# exit code to 1, and the demo asserts on the watchdog's status 7.)
flight-demo:
	rm -rf /tmp/jobgraph-flight-demo
	mkdir -p /tmp/jobgraph-flight-demo
	$(GO) build -o /tmp/jobgraph-flight-demo/tracecheck ./cmd/tracecheck
	$(GO) run ./cmd/tracegen -jobs 20000 -seed 1 -out /tmp/jobgraph-flight-demo/batch_task.csv
	/tmp/jobgraph-flight-demo/tracecheck -trace /tmp/jobgraph-flight-demo/batch_task.csv \
		-fi-stall-bytes 65536 -watchdog 2s -watchdog-exit \
		-flight-dir /tmp/jobgraph-flight-demo; \
	status=$$?; if [ $$status -ne 7 ]; then \
		echo "expected exit status 7 (watchdog trip), got $$status"; exit 1; fi
	$(GO) run ./cmd/flightcheck /tmp/jobgraph-flight-demo/*.flight.json

# Serving-plane demonstration: boot-train jobgraphd with a journal and
# an accept-stall fault, classify jobs through the retrying client
# (the stall is absorbed by backoff), then kill -9 mid-flight and show
# the journal replaying the crash window exactly once. See
# "Load-testing the daemon" in EXPERIMENTS.md.
daemon-demo:
	rm -rf /tmp/jobgraph-daemon-demo
	mkdir -p /tmp/jobgraph-daemon-demo
	$(GO) build -o /tmp/jobgraph-daemon-demo/jobgraphd ./cmd/jobgraphd
	$(GO) build -o /tmp/jobgraph-daemon-demo/jobgraphctl ./cmd/jobgraphctl
	@echo "== boot (trains and saves a model, accept-stall fault active) =="
	/tmp/jobgraph-daemon-demo/jobgraphd -addr localhost:8847 \
		-model /tmp/jobgraph-daemon-demo/model.gob \
		-journal /tmp/jobgraph-daemon-demo/serve.journal \
		-gen 4000 -sample 60 -fault-accept-stall 500ms -fault-accept-stall-conns 2 \
		-watchdog 30s & echo $$! > /tmp/jobgraph-daemon-demo/pid; sleep 1
	until /tmp/jobgraph-daemon-demo/jobgraphctl -mode stats >/dev/null 2>&1; do sleep 1; done
	/tmp/jobgraph-daemon-demo/jobgraphctl -mode post -jobs 5 -gen 2000
	/tmp/jobgraph-daemon-demo/jobgraphctl -mode rows -jobs 1 -gen 2000 \
		| tee /tmp/jobgraph-daemon-demo/rows.txt
	@echo "== kill -9, journal surgery (crash window), replay =="
	kill -9 $$(cat /tmp/jobgraph-daemon-demo/pid)
	/tmp/jobgraph-daemon-demo/jobgraphctl -mode journal-complete \
		-journal /tmp/jobgraph-daemon-demo/serve.journal \
		-job $$(head -n1 /tmp/jobgraph-daemon-demo/rows.txt | cut -f1)
	/tmp/jobgraph-daemon-demo/jobgraphd -addr localhost:8847 \
		-model /tmp/jobgraph-daemon-demo/model.gob \
		-journal /tmp/jobgraph-daemon-demo/serve.journal & echo $$! > /tmp/jobgraph-daemon-demo/pid; sleep 2
	/tmp/jobgraph-daemon-demo/jobgraphctl -mode stats
	kill -TERM $$(cat /tmp/jobgraph-daemon-demo/pid); wait $$(cat /tmp/jobgraph-daemon-demo/pid) || true
	@echo "drained cleanly"

# Static analysis as run in CI. Tools are installed on demand into
# GOPATH/bin; they are not module dependencies.
staticcheck:
	staticcheck ./... || { echo "install: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; exit 1; }

govulncheck:
	govulncheck ./... || { echo "install: go install golang.org/x/vuln/cmd/govulncheck@latest"; exit 1; }

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf results/
