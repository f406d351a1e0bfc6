package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"jobgraph/internal/obs"
	"jobgraph/internal/obs/traceexport"
)

// tracer records spans around the benchmark's calls into each layer
// on a private obs registry, so the program's own Default registry
// never sees them. A nil *tracer records nothing: the untraced run
// pays one nil check per call site.
type tracer struct{ reg *obs.Registry }

// eventCapacity bounds the spans kept in memory until the run ends;
// a run records a few thousand.
const eventCapacity = 1 << 17

// newTracer returns a tracer; allocs also records each span's heap
// allocation (two runtime.ReadMemStats per span, too costly for
// per-request spans).
func newTracer(allocs bool) *tracer {
	reg := obs.NewRegistry()
	reg.SetTrackAllocs(allocs)
	reg.SetEventCapacity(eventCapacity)
	return &tracer{reg: reg}
}

// start opens a span under parent (a root span when parent is nil).
func (t *tracer) start(parent *obs.Span, name string) *obs.Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.reg.StartSpan(name)
	}
	return parent.Child(name)
}

// step runs fn inside a span named name.
func (t *tracer) step(parent *obs.Span, name string, fn func() error) error {
	sp := t.start(parent, name)
	err := fn()
	sp.End()
	return err
}

// spanEvent is one recorded span with its path split back out.
type spanEvent struct {
	path []string
	iv   interval
}

func (s spanEvent) leaf() string { return s.path[len(s.path)-1] }

func (t *tracer) events() []spanEvent {
	evs := t.reg.Events()
	out := make([]spanEvent, len(evs))
	for i, ev := range evs {
		out[i] = spanEvent{path: strings.Split(ev.Path, "/"), iv: interval{ev.Start, ev.Start.Add(ev.Dur)}}
	}
	return out
}

// medianMS is the median wall time (ms) of the spans whose leaf name
// is name.
func (t *tracer) medianMS(name string) float64 {
	var xs []float64
	for _, ev := range t.events() {
		if ev.leaf() == name {
			xs = append(xs, ms(ev.iv.end.Sub(ev.iv.start)))
		}
	}
	return median(xs)
}

// allocMB is the mean heap allocation (MB) per span named name, over
// every place in the tree the name occurs.
func (t *tracer) allocMB(name string) float64 {
	var bytes uint64
	var count int64
	var walk func(nodes []*obs.SpanStats)
	walk = func(nodes []*obs.SpanStats) {
		for _, n := range nodes {
			if n.Name == name {
				bytes += n.AllocBytes
				count += n.Count
			}
			kids := make([]*obs.SpanStats, 0, len(n.Children))
			for _, c := range n.Children {
				kids = append(kids, c)
			}
			walk(kids)
		}
	}
	walk(t.reg.SpanTree())
	if count == 0 {
		return 0
	}
	return mb(bytes) / float64(count)
}

// rootSelfMS is the median self time (ms) of the root spans named
// root: each one's duration minus the union of the spans directly
// under it.
func (t *tracer) rootSelfMS(root string) float64 {
	evs := t.events()
	var xs []float64
	for _, p := range evs {
		if len(p.path) != 1 || p.path[0] != root {
			continue
		}
		var kids []interval
		for _, c := range evs {
			if len(c.path) == 2 && c.path[0] == root && !c.iv.start.Before(p.iv.start) && !c.iv.end.After(p.iv.end) {
				kids = append(kids, c.iv)
			}
		}
		xs = append(xs, ms(selfTime(p.iv, kids)))
	}
	return median(xs)
}

// exportTrace writes the spans of every tracer as one Perfetto-loadable
// timeline beside the run's scratch directory (which is removed when
// the run ends).
func exportTrace(e *env, trs ...*tracer) error {
	var evs []obs.TraceEvent
	for _, t := range trs {
		evs = append(evs, t.reg.Events()...)
	}
	path := filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("%s-seed%d.trace.json", e.setup.Workload, e.seed))
	return traceexport.WriteFile(path, evs, traceexport.Meta{Process: "perfbench", Labels: map[string]string{
		"workload": e.setup.Workload, "seed": fmt.Sprint(e.seed), "source_sha256": e.setup.SourceSHA256,
	}})
}
