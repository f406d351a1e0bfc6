package cli

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"jobgraph/internal/ledger"
	"jobgraph/internal/obs"
	"jobgraph/internal/obs/flight"
	"jobgraph/internal/obs/promexport"
	"jobgraph/internal/obs/traceexport"
)

// ObsFlags is the observability flag set shared by every command:
//
//	-v            per-stage progress logging (slog text, Info level)
//	-log-json     structured JSON logs for machines
//	-debug-addr   live /metrics, /progress, expvar + pprof endpoint
//	-trace-out    Perfetto/chrome://tracing timeline JSON on exit
//	-ledger       append the run's metrics snapshot to a JSONL ledger
//	-profile-dir  capture CPU + heap profiles named by run id
//	-flight-dir   where crash/stall flight dumps land (default: temp dir)
//	-watchdog     stall watchdog budget for stages and heartbeats
//	-watchdog-cancel  cancel the run cooperatively when the watchdog trips
//	-watchdog-exit    exit 7 when the watchdog trips (for wedged runs)
//
// Register the flags before flag.Parse, Start the session after.
type ObsFlags struct {
	Verbose    bool
	LogJSON    bool
	DebugAddr  string
	TraceOut   string
	Ledger     string
	ProfileDir string

	FlightDir      string
	Watchdog       time.Duration
	WatchdogCancel bool
	WatchdogExit   bool

	fs *flag.FlagSet
}

// RegisterObsFlags registers the shared observability flags on the
// process flag set.
func RegisterObsFlags() *ObsFlags { return RegisterObsFlagsOn(flag.CommandLine) }

// RegisterObsFlagsOn registers the shared observability flags on fs
// (tests use private flag sets).
func RegisterObsFlagsOn(fs *flag.FlagSet) *ObsFlags {
	o := &ObsFlags{fs: fs}
	fs.BoolVar(&o.Verbose, "v", false, "log per-stage progress to stderr")
	fs.BoolVar(&o.LogJSON, "log-json", false, "emit logs as JSON instead of text")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /debug/vars and /debug/pprof/ on this address (e.g. localhost:6060)")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a Perfetto-compatible trace JSON to this path on exit")
	fs.StringVar(&o.Ledger, "ledger", "", "append this run's metrics snapshot to this JSONL run ledger")
	fs.StringVar(&o.ProfileDir, "profile-dir", "", "write <run_id>.cpu.pprof and <run_id>.heap.pprof into this directory")
	fs.StringVar(&o.FlightDir, "flight-dir", "", "write <run_id>.flight.json crash/stall dumps into this directory (default: the system temp dir)")
	fs.DurationVar(&o.Watchdog, "watchdog", 0, "trip the stall watchdog when a stage or worker pool is silent this long (0: disabled)")
	fs.BoolVar(&o.WatchdogCancel, "watchdog-cancel", false, "on a watchdog trip, also cancel the run cooperatively at the next progress callback")
	fs.BoolVar(&o.WatchdogExit, "watchdog-exit", false, "on a watchdog trip, exit with status 7 after capturing the flight dump (for runs wedged beyond cooperative cancellation)")
	return o
}

// RunInfo identifies one command invocation for logs, traces and the
// ledger.
type RunInfo struct {
	RunID      string // random per-invocation id
	Command    string
	ConfigHash string // hash of the effective flag configuration
	GitSHA     string // vcs revision when the binary carries build info
	StartedAt  time.Time
	Host       ledger.Host
}

// RunSession is one command's live observability state: the structured
// logger (also installed on the Default obs registry) plus the exit
// work — trace export, ledger append, debug-server shutdown — that
// Close performs. Commands defer Close inside cli.Run so it also runs
// on the Fatalf path.
type RunSession struct {
	Info   RunInfo
	Logger *slog.Logger
	// DebugAddr is the debug server's resolved listen address (empty
	// without -debug-addr) — with -debug-addr :0, the kernel-assigned
	// port lands here.
	DebugAddr string

	flags      *ObsFlags
	closeDebug func() error
	sampler    *obs.RuntimeSampler
	cpuProfile *os.File
	closed     bool

	recorder *flight.Recorder
	watchdog *flight.Watchdog
	sigStop  func()
	termStop func()
	termCh   chan struct{}

	// mu guards warnings, flightDump and the termination state: the
	// watchdog trips and signals arrive on their own goroutines while
	// the command body may be adding warnings.
	mu         sync.Mutex
	warnings   []string
	flightDump string
	termSig    string
	termHooks  []func()
}

// ErrTerminated marks a run stopped cooperatively by SIGINT or SIGTERM.
// Pipeline hooks surface it through CancelErr; match with errors.Is.
var ErrTerminated = errors.New("cli: terminated by signal")

// Terminated returns a channel closed when the first SIGINT/SIGTERM
// arrives — the daemon's cue to stop accepting and drain. A second
// signal hard-exits the process (130/143), so a wedged drain never
// traps the operator.
func (s *RunSession) Terminated() <-chan struct{} { return s.termCh }

// TermErr reports the termination signal as an error wrapping
// ErrTerminated, or nil while the run is unsignalled.
func (s *RunSession) TermErr() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	sig := s.termSig
	s.mu.Unlock()
	if sig == "" {
		return nil
	}
	return fmt.Errorf("%w (%s)", ErrTerminated, sig)
}

// OnTerminate registers fn to run (on the signal goroutine) when the
// first termination signal arrives, before Terminated closes.
// Registered after the signal, fn runs immediately.
func (s *RunSession) OnTerminate(fn func()) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	fired := s.termSig != ""
	if !fired {
		s.termHooks = append(s.termHooks, fn)
	}
	s.mu.Unlock()
	if fired {
		fn()
	}
}

// AddWarning records a non-fatal degradation on the session: it is
// logged immediately at Warn level and lands in the run's ledger entry
// on Close. Call before Close. Safe from any goroutine (the stall
// watchdog warns from its polling goroutine).
func (s *RunSession) AddWarning(w string) {
	if s == nil || w == "" {
		return
	}
	s.mu.Lock()
	s.warnings = append(s.warnings, w)
	s.mu.Unlock()
	s.Logger.Warn("run degraded", "warning", w)
}

// FlightDump returns the path of the flight dump captured by a
// watchdog trip this run, or "" when none was written.
func (s *RunSession) FlightDump() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flightDump
}

// CancelErr reports why the run should stop: non-nil once a
// termination signal has arrived (wrapping ErrTerminated), or once the
// watchdog has tripped with -watchdog-cancel set (wrapping
// flight.ErrStalled). Wired into the pipeline's cooperative progress
// hooks by PipelineFlags.Configure, so both SIGINT/SIGTERM and a
// tripped watchdog stop a batch run at the next per-job/per-row
// callback — the same cooperative path the daemon's drain uses.
func (s *RunSession) CancelErr() error {
	if s == nil {
		return nil
	}
	if err := s.TermErr(); err != nil {
		return err
	}
	if s.watchdog == nil || !s.flags.WatchdogCancel {
		return nil
	}
	return s.watchdog.Err()
}

// flightDir resolves where crash and stall artifacts land.
func (s *RunSession) flightDir() string {
	if s.flags.FlightDir != "" {
		return s.flags.FlightDir
	}
	return os.TempDir()
}

// dumpFlight captures counter deltas and writes the flight dump,
// returning its path ("" on failure — crash paths must not fail on
// telemetry).
func (s *RunSession) dumpFlight(reason, detail string, stack []byte) string {
	if s == nil || s.recorder == nil {
		return ""
	}
	s.recorder.CaptureMetrics()
	path, err := s.recorder.DumpTo(s.flightDir(), reason, detail, string(stack))
	if err != nil {
		fmt.Fprintf(os.Stderr, "flight dump failed: %v\n", err)
		return ""
	}
	fmt.Fprintf(os.Stderr, "flight dump written to %s\n", path)
	return path
}

// DefaultEventCapacity bounds the span event ring enabled by
// -trace-out: at ~48 bytes per retained event this caps memory near
// 800 KiB while holding every stage of even a reproduce run.
const DefaultEventCapacity = 1 << 14

// Start builds the run identity, installs the structured logger on the
// Default obs registry, enables span-event retention when a trace is
// requested, and starts the debug server when configured.
func (o *ObsFlags) Start(command string) (*RunSession, error) {
	info := RunInfo{
		RunID:      newRunID(),
		Command:    command,
		ConfigHash: configHash(o.fs),
		GitSHA:     gitSHA(),
		StartedAt:  time.Now(),
		Host:       hostInfo(),
	}
	level := slog.LevelWarn
	if o.Verbose {
		level = slog.LevelInfo
	}
	reg := obs.Default()
	// The flight recorder rides along on every run: a bounded in-memory
	// ring of recent spans, stage transitions and log records that a
	// panic, SIGQUIT or watchdog trip dumps as <run_id>.flight.json.
	rec := flight.NewRecorder(reg, flight.DefaultCapacity)
	rec.SetRunInfo(info.RunID, command)
	reg.SetObserver(rec)

	var h slog.Handler
	if o.LogJSON {
		h = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	} else {
		h = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}
	// Tee log records into the ring regardless of the stderr level, so
	// a crash dump carries the Info-level narrative even on quiet runs.
	h = rec.TeeHandler(h)
	lg := slog.New(h).With("cmd", command, "run_id", info.RunID, "config_hash", info.ConfigHash)
	reg.SetLogger(lg)

	if o.TraceOut != "" {
		reg.SetEventCapacity(DefaultEventCapacity)
	}

	s := &RunSession{Info: info, Logger: lg, flags: o, recorder: rec,
		termCh: make(chan struct{})}

	// Crash capture: a panic escaping the command body (via cli.Run's
	// protect) and a SIGQUIT both flush the ring before the process
	// dies; SIGQUIT then re-raises so Go's default stack dump still
	// prints.
	installCrashDump(func(reason, detail string, stack []byte) {
		s.dumpFlight(reason, detail, stack)
	})
	s.sigStop = notifySIGQUIT(func() {
		s.dumpFlight("sigquit", "SIGQUIT received", nil)
	})
	// Cooperative termination: the first SIGINT/SIGTERM flips the
	// session's termination state (CancelErr, Terminated, OnTerminate
	// hooks); a second one hard-exits. Every command gets the same
	// two-signal contract — batch runs cancel at the next progress
	// callback, the daemon starts its drain.
	s.termStop = notifyTermination(func(sig string) {
		s.mu.Lock()
		s.termSig = sig
		hooks := s.termHooks
		s.termHooks = nil
		s.mu.Unlock()
		lg.Warn("termination signal received; finishing cooperatively (signal again to force exit)", "signal", sig)
		// Hooks run before the close, so a receiver woken by
		// Terminated observes every hook's effects.
		for _, fn := range hooks {
			fn()
		}
		close(s.termCh)
	})

	if o.Watchdog > 0 {
		s.watchdog = flight.NewWatchdog(flight.Config{
			Registry:         reg,
			Recorder:         rec,
			StageBudget:      o.Watchdog,
			HeartbeatTimeout: o.Watchdog,
			FlightDir:        s.flightDir(),
			RunID:            info.RunID,
			OnTrip: func(ti flight.TripInfo) {
				s.mu.Lock()
				s.flightDump = ti.DumpPath
				s.mu.Unlock()
				s.AddWarning(fmt.Sprintf("watchdog tripped: %s", ti))
				if o.WatchdogExit {
					fmt.Fprintf(os.Stderr, "watchdog: %s; flight dump at %s\n", ti, ti.DumpPath)
					os.Exit(7)
				}
			},
		})
		s.watchdog.Start()
	}
	if o.DebugAddr != "" {
		ds, err := reg.ServeDebug(o.DebugAddr, obs.Endpoint{
			Pattern: "/metrics",
			Handler: promexport.Handler(reg),
		})
		if err != nil {
			return nil, err
		}
		// Announced unconditionally (not at Info) so -debug-addr :0 is
		// usable without -v.
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s/metrics, /progress, /debug/vars and /debug/pprof/\n", ds.Addr)
		s.DebugAddr = ds.Addr
		s.closeDebug = ds.Close
	}
	// Runtime self-telemetry rides along with every instrumented output:
	// a scrape, the exit snapshot and the ledger all carry runtime.*
	// gauges without each command opting in.
	if o.DebugAddr != "" || o.Ledger != "" || o.TraceOut != "" {
		s.sampler = reg.NewRuntimeSampler()
		s.sampler.Start(obs.DefaultRuntimeSampleInterval)
	}
	if o.ProfileDir != "" {
		if err := s.startCPUProfile(); err != nil {
			s.Close()
			return nil, err
		}
	}
	lg.Info("run started", "git_sha", info.GitSHA, "host", info.Host.Hostname,
		"go", info.Host.GoVersion, "cpus", info.Host.NumCPU)
	return s, nil
}

// startCPUProfile begins CPU profiling into
// <profile-dir>/<run_id>.cpu.pprof.
func (s *RunSession) startCPUProfile() error {
	if err := os.MkdirAll(s.flags.ProfileDir, 0o755); err != nil {
		return fmt.Errorf("cli: profile dir: %w", err)
	}
	path := filepath.Join(s.flags.ProfileDir, s.Info.RunID+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cli: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cli: cpu profile: %w", err)
	}
	s.cpuProfile = f
	return nil
}

// stopProfiles ends the CPU profile and writes the heap profile; both
// are named by run id so profiles pair with ledger entries.
func (s *RunSession) stopProfiles() error {
	var errs []error
	if s.cpuProfile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuProfile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cli: cpu profile: %w", err))
		} else {
			s.Logger.Info("cpu profile written", "path", s.cpuProfile.Name())
		}
		s.cpuProfile = nil
	}
	if s.flags.ProfileDir != "" {
		path := filepath.Join(s.flags.ProfileDir, s.Info.RunID+".heap.pprof")
		f, err := os.Create(path)
		if err != nil {
			return errors.Join(append(errs, fmt.Errorf("cli: heap profile: %w", err))...)
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			errs = append(errs, fmt.Errorf("cli: heap profile: %w", err))
		} else {
			s.Logger.Info("heap profile written", "path", path)
		}
		if err := f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cli: heap profile: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Close flushes the run's observability outputs: the Perfetto trace,
// the ledger entry, and the debug server. Safe to call once deferred
// and again explicitly; later calls are no-ops.
func (s *RunSession) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	reg := obs.Default()
	var errs []error
	// Crash capture stands down first: after Close the ring stops
	// filling and a later panic belongs to whatever runs next.
	if s.watchdog != nil {
		s.watchdog.Stop()
	}
	if s.sigStop != nil {
		s.sigStop()
	}
	if s.termStop != nil {
		s.termStop()
	}
	installCrashDump(nil)
	if s.recorder != nil {
		reg.SetObserver(nil)
	}
	// Profiles and the final runtime sample land before the snapshot
	// consumers below, so the ledger entry sees up-to-date gauges.
	if err := s.stopProfiles(); err != nil {
		errs = append(errs, err)
	}
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.flags.TraceOut != "" {
		events := reg.Events()
		meta := traceexport.Meta{
			Process: s.Info.Command,
			Labels: map[string]string{
				"run_id":      s.Info.RunID,
				"config_hash": s.Info.ConfigHash,
			},
		}
		if s.Info.GitSHA != "" {
			meta.Labels["git_sha"] = s.Info.GitSHA
		}
		if err := traceexport.WriteFile(s.flags.TraceOut, events, meta); err != nil {
			errs = append(errs, err)
		} else {
			s.Logger.Info("trace written", "path", s.flags.TraceOut,
				"events", len(events), "dropped", reg.EventsDropped())
		}
	}
	if s.flags.Ledger != "" {
		s.mu.Lock()
		warnings := append([]string(nil), s.warnings...)
		dump := s.flightDump
		s.mu.Unlock()
		e := ledger.Entry{
			Schema:     ledger.Schema,
			RunID:      s.Info.RunID,
			Command:    s.Info.Command,
			StartedAt:  s.Info.StartedAt.UTC(),
			WallMs:     float64(time.Since(s.Info.StartedAt)) / float64(time.Millisecond),
			GitSHA:     s.Info.GitSHA,
			ConfigHash: s.Info.ConfigHash,
			Host:       s.Info.Host,
			Metrics:    reg.Snapshot(),
			Warnings:   warnings,
			FlightDump: dump,
		}
		if err := ledger.Append(s.flags.Ledger, e); err != nil {
			errs = append(errs, err)
		} else {
			s.Logger.Info("ledger appended", "path", s.flags.Ledger, "run_id", e.RunID)
		}
	}
	if s.closeDebug != nil {
		if err := s.closeDebug(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// newRunID returns a 16-hex-char random run id (time-derived when the
// system RNG is unavailable).
func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// obsFlagNames is the set of flags RegisterObsFlagsOn registers, read
// off a throwaway registration so it can never drift from the flags
// themselves.
var obsFlagNames = func() map[string]bool {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	RegisterObsFlagsOn(fs)
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}()

// configHash fingerprints the effective flag configuration — every
// flag's value, defaults included — so runs are comparable exactly
// when their configuration matches. Flags that do not change the
// workload are left out: every observability flag (logging, debug
// endpoint, trace/ledger/profile/flight outputs, watchdog) and -out,
// which only names where a run writes its artifacts. Call after
// flag.Parse.
func configHash(fs *flag.FlagSet) string {
	if fs == nil {
		return ""
	}
	h := fnv.New64a()
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "out" || obsFlagNames[f.Name] {
			return
		}
		fmt.Fprintf(h, "%s=%s\n", f.Name, f.Value.String())
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

// gitSHA reads the vcs revision stamped into the binary, if any
// (absent under plain `go run` without VCS stamping).
func gitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// hostInfo describes the current machine for the ledger.
func hostInfo() ledger.Host {
	hn, _ := os.Hostname()
	return ledger.Host{
		Hostname:  hn,
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}
