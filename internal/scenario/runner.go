package scenario

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"mobilenet/internal/cancel"
	"mobilenet/internal/core"
	"mobilenet/internal/coverage"
	"mobilenet/internal/frog"
	"mobilenet/internal/grid"
	"mobilenet/internal/meeting"
	"mobilenet/internal/mobility"
	"mobilenet/internal/obs"
	"mobilenet/internal/predator"
	"mobilenet/internal/prof"
	"mobilenet/internal/step"
)

// Runner adapts one engine to the uniform Spec contract. RunRep executes a
// single replicate of a canonical spec under an explicit seed (callers
// derive it with RepSeed), which is the unit of work the simulation
// service's pool schedules. Runners are stateless and safe for concurrent
// use: every RunRep builds its own grid and engine state.
type Runner interface {
	// Engine returns the canonical engine name the runner serves.
	Engine() string
	// RunRep runs one replicate of the spec under the given seed. The
	// context's cancellation is honoured mid-run with amortized per-step
	// cost (see internal/cancel): a cancelled replicate returns an error
	// wrapping ErrCancelled within one check interval. An uncancellable
	// context (context.Background()) costs the step loop nothing.
	RunRep(ctx context.Context, spec Spec, seed uint64) (Rep, error)
}

// ErrCancelled is wrapped by the error a Runner returns when its context
// is cancelled mid-replicate; test with errors.Is. The replicate's partial
// state is discarded — a cancelled run never yields a Rep.
var ErrCancelled = errors.New("scenario: run cancelled")

// cancelled builds the ErrCancelled-wrapping error for a stopped check,
// carrying the context's cancellation cause (deadline, shutdown, ...).
func cancelled(ctx context.Context) error {
	return fmt.Errorf("%w: %v", ErrCancelled, context.Cause(ctx))
}

// runners is the engine registry: one runner per engine, all sharing the
// one RunRep body. It is read-only after init, so Lookup needs no locking.
var runners = map[string]Runner{}

func init() {
	for _, r := range []runner{
		{EngineBroadcast, startBroadcast, broadcastRep},
		{EngineGossip, startGossip, stepsRep},
		{EngineFrog, startFrog, frogRep},
		{EngineCoverage, startCoverage, coverageRep},
		{EnginePredator, startPredator, predatorRep},
		{EngineMeeting, startMeeting, stepsRep},
	} {
		runners[r.engine] = r
	}
}

// Lookup resolves an engine name (case-insensitive) to its Runner.
func Lookup(engine string) (Runner, bool) {
	r, ok := runners[strings.ToLower(strings.TrimSpace(engine))]
	return r, ok
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	out := make([]string, 0, len(runners))
	for name := range runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run canonicalises the spec and executes all its replicates serially in
// replicate order. This is the library execution path; internal/simserve
// produces the identical Result by fanning the same replicates across a
// worker pool.
func Run(spec Spec) (*Result, error) {
	return RunWithTrace(spec, nil)
}

// RunWithTrace is Run with an optional span trace: when tr is non-nil,
// every replicate's execution is recorded as a span on its own logical
// trace thread, annotated with the replicate seed and — under Spec.Profile
// — the per-phase breakdown. A nil tr makes RunWithTrace exactly Run; this
// is the CLI's -trace-out path.
func RunWithTrace(spec Spec, tr *prof.Trace) (*Result, error) {
	c, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := HashCanonical(c)
	if err != nil {
		return nil, err
	}
	r, ok := Lookup(c.Engine)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown engine %q", c.Engine)
	}
	// Parallelism and Profile are execution-only knobs: canonicalisation
	// zeroed them so they cannot split the content hash, but the caller's
	// settings still govern how these replicates execute.
	c.Parallelism = spec.Parallelism
	c.Profile = spec.Profile
	reps := make([]Rep, c.Reps)
	for i := range reps {
		start := time.Now()
		rep, err := r.RunRep(context.Background(), c, RepSeed(c.Seed, i))
		if err != nil {
			return nil, err
		}
		reps[i] = rep
		if tr != nil {
			tid := int64(i)
			tr.NameThread(tid, "rep "+strconv.Itoa(i))
			tr.Add("run "+c.Engine, "rep", tid, start, time.Since(start), repSpanArgs(rep))
		}
	}
	return Assemble(c, hash, reps)
}

// repSpanArgs renders a replicate's outcome as trace-span annotations.
func repSpanArgs(rep Rep) map[string]string {
	args := map[string]string{
		"seed":      strconv.FormatUint(rep.Seed, 10),
		"steps":     strconv.Itoa(rep.Steps),
		"completed": strconv.FormatBool(rep.Completed),
	}
	if rep.Phases != nil {
		for name, s := range rep.Phases.Seconds {
			args["phase_"+name+"_ms"] = strconv.FormatFloat(s*1e3, 'f', 3, 64)
		}
	}
	return args
}

// runner adapts one engine to the Spec contract: start constructs the
// replicate's engine (performing its time-0 exchange) and resolves its step
// cap, and rep maps the finished engine onto the replicate outcome.
// Everything between — observation, profiling, cancellation and the step
// loop — is the one RunRep body, run through the step driver.
type runner struct {
	engine string
	start  func(spec Spec, rc repContext) (step.Engine, int, error)
	rep    func(e step.Engine, res step.Result, spec Spec) Rep
}

// repContext is what every engine's construction shares: the realised
// arena and motion model, the replicate seed and the step profiler (nil
// unless the spec profiles).
type repContext struct {
	grid    *grid.Grid
	mob     mobility.Model
	seed    uint64
	profile *prof.StepProfile
}

func (r runner) Engine() string { return r.engine }

// RunRep runs one replicate of the spec under the given seed.
func (r runner) RunRep(ctx context.Context, spec Spec, seed uint64) (Rep, error) {
	g, err := grid.FromNodes(spec.Nodes)
	if err != nil {
		return Rep{}, fmt.Errorf("scenario: %w", err)
	}
	mob, err := mobility.Parse(spec.Mobility)
	if err != nil {
		return Rep{}, fmt.Errorf("scenario: %w", err)
	}
	rc := repContext{grid: g, mob: mob, seed: seed}
	if spec.Profile {
		rc.profile = &prof.StepProfile{}
	}
	// Every replicate gets its own recorder (runners must stay safe for
	// concurrent use), preallocated so the step loop records without
	// allocating.
	var rec *obs.Recorder
	if spec.Observe != nil {
		rec = obs.NewRecorder(*spec.Observe)
	}
	chk := cancel.New(ctx, cancel.DefaultEvery)
	e, stepCap, err := r.start(spec, rc)
	if err != nil {
		return Rep{}, err
	}
	res := step.Run(e, step.Hooks{Cap: stepCap, Observe: rec, Profile: rc.profile, Cancel: chk})
	if res.Cancelled {
		return Rep{}, cancelled(ctx)
	}
	rep := r.rep(e, res, spec)
	rep.Seed = seed
	if rec != nil {
		rep.Series = rec.Series()
	}
	rep.Phases = rc.profile.Breakdown()
	return rep, nil
}

func startBroadcast(spec Spec, rc repContext) (step.Engine, int, error) {
	cfg := core.Config{
		Grid:              rc.grid,
		K:                 spec.Agents,
		Radius:            spec.Radius,
		Seed:              rc.seed,
		Source:            spec.Source,
		MaxSteps:          spec.MaxSteps,
		Mobility:          rc.mob,
		Parallelism:       spec.Parallelism,
		RecordCurve:       spec.HasMetric(MetricCurve),
		TrackInformedArea: spec.HasMetric(MetricCoverage),
		Profile:           rc.profile,
	}
	b, err := core.NewBroadcast(cfg)
	return b, cfg.StepCap(), err
}

func broadcastRep(e step.Engine, _ step.Result, _ Spec) Rep {
	res := e.(*core.Broadcast).Result()
	return Rep{
		Steps:         res.Steps,
		Completed:     res.Completed,
		Source:        res.Source,
		CoverageSteps: res.CoverageSteps,
		Curve:         res.InformedCurve,
	}
}

func startGossip(spec Spec, rc repContext) (step.Engine, int, error) {
	cfg := core.Config{
		Grid:        rc.grid,
		K:           spec.Agents,
		Radius:      spec.Radius,
		Seed:        rc.seed,
		MaxSteps:    spec.MaxSteps,
		Mobility:    rc.mob,
		Parallelism: spec.Parallelism,
		Profile:     rc.profile,
	}
	g, err := core.NewPartialGossip(cfg, spec.Rumors)
	return g, cfg.StepCap(), err
}

// stepsRep maps engines whose outcome is just the run length and whether
// the engine finished (gossip; meeting, where finishing means the walks
// met in the lens).
func stepsRep(_ step.Engine, res step.Result, _ Spec) Rep {
	return Rep{Steps: res.Steps, Completed: res.Completed, CoverageSteps: -1}
}

func startFrog(spec Spec, rc repContext) (step.Engine, int, error) {
	cfg := frog.Config{
		Grid:        rc.grid,
		K:           spec.Agents,
		Radius:      spec.Radius,
		Seed:        rc.seed,
		Source:      spec.Source,
		MaxSteps:    spec.MaxSteps,
		Mobility:    rc.mob,
		Parallelism: spec.Parallelism,
		Profile:     rc.profile,
	}
	s, err := frog.New(cfg)
	return s, cfg.StepCap(), err
}

// frogRep reports the spec's source (SourceRandom stays -1) rather than the
// realised one.
func frogRep(_ step.Engine, res step.Result, spec Spec) Rep {
	return Rep{Steps: res.Steps, Completed: res.Completed, Source: spec.Source, CoverageSteps: -1}
}

func startCoverage(spec Spec, rc repContext) (step.Engine, int, error) {
	cfg := coverage.Config{
		Grid:        rc.grid,
		Walkers:     spec.Agents,
		Seed:        rc.seed,
		MaxSteps:    spec.MaxSteps,
		Mobility:    rc.mob,
		RecordCurve: spec.HasMetric(MetricCurve),
		Profile:     rc.profile,
	}
	s, err := coverage.New(cfg)
	return s, cfg.StepCap(), err
}

func coverageRep(e step.Engine, _ step.Result, _ Spec) Rep {
	res := e.(*coverage.System).Result()
	return Rep{Steps: res.Steps, Completed: res.Completed, Covered: res.Covered, CoverageSteps: -1, Curve: res.Curve}
}

func startPredator(spec Spec, rc repContext) (step.Engine, int, error) {
	preys := spec.Preys
	if preys == 0 {
		preys = spec.Agents
	}
	cfg := predator.Config{
		Grid:      rc.grid,
		Predators: spec.Agents,
		Preys:     preys,
		Radius:    spec.Radius,
		Seed:      rc.seed,
		MaxSteps:  spec.MaxSteps,
		Mobility:  rc.mob,
		Profile:   rc.profile,
	}
	s, err := predator.New(cfg)
	return s, cfg.StepCap(), err
}

func predatorRep(e step.Engine, res step.Result, _ Spec) Rep {
	return Rep{Steps: res.Steps, Completed: res.Completed, Survivors: e.(*predator.System).Alive(), CoverageSteps: -1}
}

// startMeeting starts one Lemma 3 meeting trial at separation d = Radius.
// Steps is the meeting time (the horizon when the walks never met) and
// Completed reports a meeting inside the lens, so the mean of Completed
// over replicates estimates the lemma's probability p(d).
func startMeeting(spec Spec, rc repContext) (step.Engine, int, error) {
	m, err := meeting.NewPair(spec.Radius, rc.seed, spec.MaxSteps, rc.profile)
	if err != nil {
		return nil, 0, fmt.Errorf("scenario: %w", err)
	}
	return m, m.Horizon(), nil
}
