package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"jobgraph/internal/serve"
	"jobgraph/internal/trace"
)

// TestRefusedRequestCountsAsFailed drives one cycle against a stub
// daemon whose admission queue is always full: every 429 must count as
// a failed operation and contribute no latency sample.
func TestRefusedRequestCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "admission queue full", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"schema":"jobgraph-similar/v1","job":"j_1","k":10,"hits":[]}`))
	}))
	defer srv.Close()

	rows := []trace.TaskRecord{{TaskName: "M1", JobName: "j_9"}, {TaskName: "R2_1", JobName: "j_9"}}
	l := &loop{
		c: srv.Client(), base: srv.URL, clients: 1, simPer: 1, tag: "x",
		pool:    []clientJob{{job: trace.Job{Name: "j_9", Tasks: rows}}},
		simIDs:  []string{"j_1"},
		simWant: map[string][]serve.SimilarHit{"j_1": nil},
	}
	var out clientOut
	l.cycle(0, 0, &out)
	rep := newReport()
	st := summarise(rep, out.ops)
	// jobs, rows, rows, complete refused; similar answered.
	if rep.attempted != 5 || rep.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", rep.attempted, rep.failed)
	}
	if len(st.classify) != 0 || len(st.write) != 0 || len(st.similar) != 1 || st.classified != 0 {
		t.Fatalf("latency samples: classify %d write %d similar %d classified %d",
			len(st.classify), len(st.write), len(st.similar), st.classified)
	}
}
