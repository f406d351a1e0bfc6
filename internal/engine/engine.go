// Package engine executes a declarative pipeline of typed stages with
// content-addressed artifact caching.
//
// A Plan is an ordered list of stages; each stage declares its name,
// the upstream stages whose artifacts it consumes, a fingerprint of
// the configuration fields that affect its output, and (optionally) a
// codec that makes its artifact cacheable. The runner derives every
// stage's content key as a SHA-256 over its name, fingerprint and the
// keys of its dependencies, so a key matches exactly when the stage
// would recompute the same value. With a cache store attached, a stage
// whose key is present loads its artifact instead of running — a warm
// re-run with only downstream configuration changed skips the expensive
// upstream stages, and a run interrupted mid-stage resumes from the
// last completed artifact on the next invocation, because artifacts are
// persisted as each stage completes.
//
// The runner threads the repository's observability conventions through
// a single place: each executed stage runs inside an obs span (child of
// the caller's parent span), emits one structured log record, and lands
// on the Result's execution-ordered timing list; cache hits and misses
// are counted on the Default obs registry so they surface in
// metrics.json and the run ledger.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"time"

	"jobgraph/internal/engine/cache"
	"jobgraph/internal/obs"
)

// keySchema salts every content key; bump together with artifact or
// stage-semantics changes so stale caches miss instead of resurfacing
// wrong-shaped artifacts.
// v2: dag.Graph moved to a flat CSR core with a compact binary gob wire
// form (JGD2), so every cached artifact embedding a graph changed shape.
// v3: the wl.features and wl.sketch artifacts carry wl.CompactVector
// feature vectors instead of label-count maps.
const keySchema = "jobgraph-engine/v3"

// Cache traffic counters — the warm/cold visibility in metrics.json.
var (
	obsCacheHits   = obs.Default().Counter("engine.cache.hits")
	obsCacheMisses = obs.Default().Counter("engine.cache.misses")
	obsCacheErrors = obs.Default().Counter("engine.cache.errors")
	obsStagesRun   = obs.Default().Counter("engine.stages_run")
	obsStagesCache = obs.Default().Counter("engine.stages_cached")
)

// StageCacheMetricPrefix namespaces the per-stage cache counters:
// <prefix><stage>.hits / .misses / .bytes_read / .bytes_written.
// Flat dotted names (rather than labels) keep them greppable in
// metrics.json and parseable by benchdiff.
const StageCacheMetricPrefix = "engine.cache.stage."

// stageCacheCounter returns the per-stage cache counter for one metric
// kind ("hits", "misses", "bytes_read", "bytes_written").
func stageCacheCounter(stage, kind string) *obs.Counter {
	return obs.Default().Counter(StageCacheMetricPrefix + stage + "." + kind)
}

// Inputs hands a stage the artifacts of its declared dependencies.
type Inputs struct {
	artifacts map[string]any
}

// Get returns a dependency's artifact by stage name.
func (in Inputs) Get(name string) (any, bool) {
	v, ok := in.artifacts[name]
	return v, ok
}

// In returns the named dependency artifact asserted to type T. It
// errors (rather than panics) on a missing dependency or a type
// mismatch so a mis-wired stage fails its run with a diagnosable
// message instead of crashing the process.
func In[T any](in Inputs, name string) (T, error) {
	var zero T
	v, ok := in.artifacts[name]
	if !ok {
		return zero, fmt.Errorf("engine: stage input %q not available (not a declared dependency?)", name)
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("engine: stage input %q is %T, not %T", name, v, zero)
	}
	return t, nil
}

// Stage is one computed pipeline step.
type Stage struct {
	// Name identifies the stage; use the constants in internal/stages.
	Name string
	// Deps are the stages whose artifacts feed this one. Every dep must
	// be declared earlier in the plan.
	Deps []string
	// Fingerprint digests the configuration fields that affect this
	// stage's output — and nothing else. Fields that provably do not
	// change the artifact (worker counts, progress callbacks) must stay
	// out, so artifacts are shared across those settings.
	Fingerprint string
	// Codec serializes the artifact for the content-addressed store.
	// nil marks the artifact as not cacheable: the stage always runs.
	Codec cache.Codec
	// Run computes the artifact. detail is a one-line human summary for
	// the stage's structured log record.
	Run func(in Inputs) (artifact any, detail string, err error)
}

// source is a provided (not computed) artifact: the plan's input data.
type source struct {
	name string

	value any
	// fingerprint is lazy: digesting the input (e.g. hashing a 20k-job
	// trace) is only worth doing when a cache store is attached.
	fingerprint func() string
}

// Plan is an ordered stage graph. Build it with Source and Add, then
// Execute it.
type Plan struct {
	sources []source
	stages  []*Stage
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Source declares a provided artifact. fingerprint is invoked at most
// once, and only when content keys are needed (a cache store is
// attached).
func (p *Plan) Source(name string, value any, fingerprint func() string) *Plan {
	p.sources = append(p.sources, source{name: name, value: value, fingerprint: fingerprint})
	return p
}

// Add appends a computed stage. Stages execute in the order added;
// dependencies must already be declared.
func (p *Plan) Add(s *Stage) *Plan {
	p.stages = append(p.stages, s)
	return p
}

// validate checks the plan is executable: unique names, deps declared
// before use, stage bodies present.
func (p *Plan) validate() error {
	declared := make(map[string]bool, len(p.sources)+len(p.stages))
	for _, s := range p.sources {
		if s.name == "" {
			return fmt.Errorf("engine: source with empty name")
		}
		if declared[s.name] {
			return fmt.Errorf("engine: duplicate stage %q", s.name)
		}
		declared[s.name] = true
	}
	for _, st := range p.stages {
		if st.Name == "" {
			return fmt.Errorf("engine: stage with empty name")
		}
		if declared[st.Name] {
			return fmt.Errorf("engine: duplicate stage %q", st.Name)
		}
		if st.Run == nil {
			return fmt.Errorf("engine: stage %q has no Run func", st.Name)
		}
		for _, d := range st.Deps {
			if !declared[d] {
				return fmt.Errorf("engine: stage %q depends on %q, which is not declared before it", st.Name, d)
			}
		}
		declared[st.Name] = true
	}
	return nil
}

// Options configures one plan execution.
type Options struct {
	// Store enables artifact caching; nil runs every stage.
	Store *cache.Store
	// Parent is the span stage spans nest under (typically the
	// "pipeline" root). A nil parent starts root-level spans.
	Parent *obs.Span
	// Logger receives one structured record per stage outcome; nil uses
	// the Default registry's logger.
	Logger *slog.Logger
}

// StageTiming is one executed stage's measured wall time.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Result is the outcome of a plan execution.
type Result struct {
	// Executed lists the stages that actually ran, in execution order,
	// with their wall times — cache hits do not appear here.
	Executed []StageTiming
	// Cached lists the stages satisfied from the artifact store, in
	// plan order.
	Cached []string
	// Keys maps stage name → content key. Empty when no store was
	// attached (keys are only computed when caching is on).
	Keys map[string]string
	// Hits and Misses count this execution's cache traffic.
	Hits, Misses int

	artifacts map[string]any
}

// Artifact returns a stage's artifact (computed or cache-loaded).
func (r *Result) Artifact(name string) (any, bool) {
	v, ok := r.artifacts[name]
	return v, ok
}

// ArtifactAs returns a stage's artifact asserted to type T.
func ArtifactAs[T any](r *Result, name string) (T, error) {
	return In[T](Inputs{artifacts: r.artifacts}, name)
}

// Execute runs the plan. On a stage error the partially-filled Result
// is returned alongside the error; artifacts of completed stages have
// already been persisted to the store, which is what makes the next
// invocation resume from them.
func (p *Plan) Execute(opt Options) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	lg := opt.Logger
	if lg == nil {
		lg = obs.Default().Logger()
	}
	res := &Result{
		artifacts: make(map[string]any, len(p.sources)+len(p.stages)),
		Keys:      make(map[string]string),
	}
	caching := opt.Store != nil
	for _, s := range p.sources {
		res.artifacts[s.name] = s.value
		if caching {
			res.Keys[s.name] = contentKey(s.name, s.fingerprint(), nil, res.Keys)
		}
	}
	prog := obs.Default().Progress()
	stageWindow := obs.Default().WindowHistogram("engine.stage_ms", obs.DefaultWindow)
	// Plan-level liveness for the stall watchdog: one beat per stage
	// boundary. Stages that parallelize internally (runPool, the ingest
	// shards) carry their own finer-grained heartbeats; this one catches
	// a plan wedged between stages or inside a monolithic stage's setup.
	hb := obs.Default().Heartbeat("engine.stages")
	hb.Beat()
	defer hb.Done()
	for _, st := range p.stages {
		var key string
		if caching {
			key = contentKey(st.Name, st.Fingerprint, st.Deps, res.Keys)
			res.Keys[st.Name] = key
		}
		if caching && st.Codec != nil {
			v, n, ok, err := opt.Store.Load(st.Name, key, st.Codec)
			if err != nil {
				// A corrupt or stale artifact is a miss, not a failure:
				// recompute and overwrite.
				obsCacheErrors.Add(1)
				lg.Warn("stage artifact unusable; recomputing", "stage", st.Name, "err", err)
			}
			if ok {
				obsCacheHits.Add(1)
				obsStagesCache.Add(1)
				stageCacheCounter(st.Name, "hits").Add(1)
				stageCacheCounter(st.Name, "bytes_read").Add(n)
				res.Hits++
				res.Cached = append(res.Cached, st.Name)
				res.artifacts[st.Name] = v
				prog.StageFinished(st.Name, obs.StageCached, 0)
				lg.Info("stage cached", "stage", st.Name, "key", key[:12])
				continue
			}
			obsCacheMisses.Add(1)
			stageCacheCounter(st.Name, "misses").Add(1)
			res.Misses++
		}
		in := Inputs{artifacts: res.artifacts}
		hb.Beat()
		prog.StageStarted(st.Name)
		sp := opt.Parent.Child(st.Name)
		v, detail, err := st.Run(in)
		d := sp.End()
		res.Executed = append(res.Executed, StageTiming{Name: st.Name, Duration: d})
		obsStagesRun.Add(1)
		stageWindow.Observe(float64(d) / float64(time.Millisecond))
		if err != nil {
			prog.StageFinished(st.Name, obs.StageFailed, d)
			lg.Error("stage failed", "stage", st.Name, "duration", d.Round(time.Microsecond), "err", err)
			return res, err
		}
		prog.StageFinished(st.Name, obs.StageDone, d)
		lg.Info("stage complete", "stage", st.Name, "duration", d.Round(time.Microsecond), "detail", detail)
		res.artifacts[st.Name] = v
		if caching && st.Codec != nil {
			n, err := opt.Store.Save(st.Name, key, st.Codec, v)
			if err != nil {
				// Failing to persist must not fail the run; the next
				// invocation just recomputes.
				obsCacheErrors.Add(1)
				lg.Warn("stage artifact not persisted", "stage", st.Name, "err", err)
			} else {
				stageCacheCounter(st.Name, "bytes_written").Add(n)
			}
		}
	}
	return res, nil
}

// contentKey derives a stage's content key from its name, its config
// fingerprint and its dependencies' keys. Dependency order is the
// declared order, so the key is deterministic.
func contentKey(name, fingerprint string, deps []string, keys map[string]string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00", keySchema, name, fingerprint)
	for _, d := range deps {
		fmt.Fprintf(h, "%s=%s\x00", d, keys[d])
	}
	return hex.EncodeToString(h.Sum(nil))
}
