// Command mobisim runs a single dissemination simulation — or a whole
// parameter sweep — and prints the measured times alongside the paper's
// theoretical scales. Flags assemble a scenario spec (the same declarative
// object cmd/mobiserved serves and mobilenet.RunScenario executes), so one
// dispatch path drives every engine; -spec skips the flag assembly and
// runs a JSON spec file, and -sweep runs a sweep spec file (a base
// scenario plus axes, the same object POST /v1/sweeps accepts) through
// the sweep subsystem, printing the per-point table and optional
// scaling-law fit.
//
// Usage:
//
//	mobisim -n 16384 -k 64 -r 0 -seed 1 -model broadcast
//	mobisim -n 16384 -k 64 -mobility levy:alpha=1.6,max=40
//	mobisim -spec scenario.json -reps 5
//	mobisim -sweep sweep.json                  # table to stdout
//	mobisim -sweep sweep.json -table out.csv   # also export CSV (.json for a JSON table)
//	mobisim -sweep sweep.json -json            # full sweep result as JSON
//	mobisim -observe informed -series-out -    # per-step series as NDJSON to stdout
//	mobisim -observe informed,coverage -observe-every 4 -reps 8 -series-out series.csv
//	mobisim -profile                           # step-phase breakdown (move/index/label/spread/observe)
//	mobisim -reps 4 -trace-out run.trace.json  # execution trace, loadable in Perfetto
//
// Observation (-observe) records per-step time series — the
// dissemination-front curves behind the paper's figures — through the
// scenario's observe block: the same request a -spec file spells as
// {"observe":{...}} and mobiserved serves at /v1/results/{hash}/series.
// -series-out renders the across-replicate aggregate: "-" streams NDJSON
// to stdout (byte-identical to the library and service renders), a .csv
// or .json path exports the tabular form.
//
// Models: broadcast (default), gossip, frog, coverage (alias: cover),
// predator (alias: extinction), meeting (one Lemma 3 trial per replicate;
// -r is the initial separation d).
//
// Mobility (-mobility) selects the motion law, with model-specific
// sub-options after a colon:
//
//	lazy                   the paper's lazy random walk (default)
//	waypoint[:pause=N]     random waypoint with N-tick rest on arrival
//	levy[:alpha=F,max=N]   Lévy flight, tail exponent F, truncation N
//	ballistic[:turn=F]     straight lines, per-tick turn probability F
//	trace:FILE[,loop]      replay a trajectory recorded with -trace
//
// Trace replay is the one motion law that cannot ride a scenario spec (the
// trajectory bytes live outside the spec, so no content hash could address
// the run); it executes through the library API directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mobilenet"
	"mobilenet/internal/core"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/prof"
	"mobilenet/internal/step"
	"mobilenet/internal/sweep"
	"mobilenet/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobisim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobisim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 16384, "number of grid nodes (rounded up to a square)")
		k        = fs.Int("k", 64, "number of agents")
		r        = fs.Int("r", 0, "transmission radius (Manhattan)")
		seed     = fs.Uint64("seed", 1, "randomness seed")
		model    = fs.String("model", "broadcast", "engine: broadcast|gossip|frog|coverage|predator|meeting (aliases: cover, extinction)")
		mobSpec  = fs.String("mobility", "lazy", "mobility model: lazy|waypoint[:pause=N]|levy[:alpha=F,max=N]|ballistic[:turn=F]|trace:FILE[,loop]")
		preys    = fs.Int("preys", 0, "prey count for -model predator (default k)")
		reps     = fs.Int("reps", 1, "replicates (position-derived seeds; prints the mean)")
		maxSteps = fs.Int("max-steps", 0, "cap the run at this many steps (0 = engine's theory-derived default)")
		curve    = fs.Bool("curve", false, "print the informed-count curve (broadcast only)")
		observe  = fs.String("observe", "", "comma-separated per-step observables to record: informed|components|largest_component|coverage|frontier|meeting")
		obsEvery = fs.Int("observe-every", 0, "observation cadence in steps (0 = every step; needs -observe)")
		obsMax   = fs.Int("observe-max", 0, "max recorded series points per replicate, stride doubling past it (0 = uncapped; needs -observe)")
		series   = fs.String("series-out", "", "write the aggregated series: '-' = NDJSON to stdout, a .csv/.json path = table export")
		specPath = fs.String("spec", "", "run a scenario spec JSON file instead of assembling one from flags")
		sweepIn  = fs.String("sweep", "", "run a sweep spec JSON file (base scenario + axes) through the sweep subsystem")
		tableOut = fs.String("table", "", "with -sweep: export the sweep table to this file (.csv or .json)")
		jsonOut  = fs.Bool("json", false, "print the full scenario (or sweep) result as JSON")
		traceOut = fs.String("trace", "", "record the full trajectory to this file (broadcast only)")
		par      = fs.Int("par", 0, "component-labeller workers: 0 = automatic, 1 = sequential (results identical)")
		profFlag = fs.Bool("profile", false, "record step-phase timings (move/index/label/spread/observe) and print the breakdown")
		execOut  = fs.String("trace-out", "", "export an execution trace of the run as Chrome trace-event JSON to this file (open in Perfetto); implies -profile")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()
	engine := canonicalEngine(strings.ToLower(strings.TrimSpace(*model)))

	if *observe == "" && (*obsEvery != 0 || *obsMax != 0) {
		return fmt.Errorf("-observe-every and -observe-max need -observe (or an observe block in -spec)")
	}

	if *sweepIn != "" {
		switch {
		case *specPath != "":
			return fmt.Errorf("-sweep cannot be combined with -spec (the sweep file carries its own base scenario)")
		case *traceOut != "":
			return fmt.Errorf("-trace is not supported with -sweep")
		case *observe != "" || *series != "":
			return fmt.Errorf("-observe/-series-out are single-scenario flags; put an observe block in the sweep's base scenario instead")
		case *profFlag || *execOut != "":
			return fmt.Errorf("-profile/-trace-out are single-scenario flags")
		}
		return runSweepFile(*sweepIn, *tableOut, *jsonOut)
	}
	if *tableOut != "" {
		return fmt.Errorf("-table requires -sweep")
	}

	if *traceOut != "" {
		// Recording drives the engine step by step through the library,
		// outside the scenario pipeline; scenario-only conveniences fail
		// loudly here too rather than being silently dropped.
		if *jsonOut {
			return fmt.Errorf("-json is not supported with -trace recording")
		}
		if *reps != 1 {
			return fmt.Errorf("-reps is not supported with -trace recording")
		}
		if *observe != "" || *series != "" {
			return fmt.Errorf("-observe/-series-out are not supported with -trace recording")
		}
		if *profFlag || *execOut != "" {
			return fmt.Errorf("-profile/-trace-out are not supported with -trace recording")
		}
	}

	if isTraceMobility(*mobSpec) {
		// Trace runs are not scenario-addressable, so the scenario-only
		// conveniences must fail loudly instead of being dropped.
		if *jsonOut {
			return fmt.Errorf("-json is not supported with trace mobility (trace runs are not scenario-addressable)")
		}
		if *specPath != "" {
			return fmt.Errorf("-spec cannot be combined with trace mobility (trace runs are not scenario-addressable)")
		}
		if *reps != 1 {
			return fmt.Errorf("-reps is not supported with trace mobility (the replicate schedule is a scenario feature)")
		}
		if *observe != "" || *series != "" {
			return fmt.Errorf("-observe/-series-out are not supported with trace mobility (observation is a scenario feature)")
		}
		if *profFlag || *execOut != "" {
			return fmt.Errorf("-profile/-trace-out are not supported with trace mobility (profiling is a scenario feature)")
		}
		return runTraceMobility(engine, *n, *k, *r, *seed, *mobSpec, *preys, *maxSteps, *curve, *traceOut)
	}

	sc, err := buildScenario(fs, *specPath, engine, *n, *k, *r, *seed, *mobSpec, *preys, *reps, *maxSteps, *par, *curve,
		*observe, *obsEvery, *obsMax, *profFlag || *execOut != "")
	if err != nil {
		return err
	}
	// Canonicalisation zeroes the execution-only knobs (they never split
	// the content hash); re-apply them so the run honours the flags.
	parallelism, profiled := sc.Parallelism, sc.Profile
	sc, err = sc.Canonical()
	if err != nil {
		return err
	}
	sc.Parallelism, sc.Profile = parallelism, profiled
	// -series-out conflicts are statically knowable from the canonical
	// spec; fail before the (possibly long) run, next to the other guards.
	if *series != "" {
		if *series == "-" && *jsonOut {
			return fmt.Errorf("-series-out - and -json both write stdout; give -series-out a file path")
		}
		if sc.Observe == nil {
			return fmt.Errorf("-series-out: the scenario observes nothing (add -observe or an observe block the %s engine supports)", sc.Engine)
		}
	}
	net, err := mobilenet.New(sc.Nodes, sc.Agents, mobilenet.WithScenario(sc))
	if err != nil {
		return err
	}
	// NDJSON-to-stdout mode keeps stdout machine-clean, like -json: the
	// human header and result lines are suppressed so the stream is
	// exactly the canonical series bytes.
	if !*jsonOut && *series != "-" {
		hash, err := sc.Hash()
		if err != nil {
			return err
		}
		printHeader(net, sc.Engine, hash[:12])
	}

	if *traceOut != "" {
		if sc.Engine != "broadcast" {
			return fmt.Errorf("-trace records broadcast runs only, engine is %s", sc.Engine)
		}
		// The early flag guard cannot see reps coming from a -spec file.
		if sc.Reps != 1 {
			return fmt.Errorf("-trace recording runs a single replicate; the scenario requests %d reps", sc.Reps)
		}
		mob, err := mobility.Parse(sc.Mobility)
		if err != nil {
			return err
		}
		return tracedBroadcast(net, sc.Seed, sc.Radius, sc.MaxSteps, mob, *traceOut)
	}

	var res *mobilenet.ScenarioResult
	if *execOut != "" {
		var tr *mobilenet.ExecTrace
		res, tr, err = mobilenet.RunScenarioTraced(sc)
		if err != nil {
			return err
		}
		if err := writeExecTrace(tr, *execOut, *jsonOut); err != nil {
			return err
		}
	} else {
		res, err = mobilenet.RunScenario(sc)
		if err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		// quiet: -json promises machine-clean stdout.
		return writeSeriesOut(res, *series, true)
	}
	if *series != "-" {
		printEngineResult(net, sc.Engine, res.Reps[0], *curve)
		if len(res.Reps) > 1 {
			fmt.Printf("reps: %d  mean steps: %.1f  all completed: %v\n",
				len(res.Reps), res.MeanSteps, res.AllCompleted)
		}
		printPhases(res.Phases)
	}
	return writeSeriesOut(res, *series, false)
}

// writeExecTrace exports the run's execution trace as Chrome trace-event
// JSON. quiet suppresses the confirmation line (-json keeps stdout clean).
func writeExecTrace(tr *mobilenet.ExecTrace, path string, quiet bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("trace-out: %s (load in Perfetto or chrome://tracing)\n", path)
	}
	return nil
}

// printPhases renders the aggregated step-phase breakdown in the fixed
// phase order; nil (profiling off) prints nothing.
func printPhases(b *mobilenet.PhaseBreakdown) {
	if b == nil {
		return
	}
	var total float64
	for _, sec := range b.Seconds {
		total += sec
	}
	fmt.Printf("\nstep-phase profile (%d steps, %.4fs total):\n", b.Steps, total)
	for _, name := range prof.PhaseNames() {
		sec, ok := b.Seconds[name]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s %10.4fs  %5.1f%%\n", name, sec, b.Fractions[name]*100)
	}
}

// writeSeriesOut renders the scenario's aggregated series per the
// -series-out flag: nothing when unset, the canonical NDJSON stream on
// "-", or a CSV/JSON table export by file extension. quiet suppresses the
// human confirmation line (-json keeps stdout machine-clean).
func writeSeriesOut(res *mobilenet.ScenarioResult, path string, quiet bool) error {
	if path == "" {
		return nil
	}
	if len(res.Series) == 0 {
		// Unreachable after the pre-run observe check; kept defensive.
		return fmt.Errorf("-series-out: the scenario observed nothing")
	}
	if path == "-" {
		return res.WriteSeriesNDJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".json"):
		err = res.WriteSeriesTableJSON(f)
	case strings.HasSuffix(path, ".csv"):
		err = res.WriteSeriesCSV(f)
	default:
		err = res.WriteSeriesNDJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("series: %s\n", path)
	}
	return nil
}

// runSweepFile executes a sweep spec file through the sweep subsystem and
// renders the per-point table (stdout or -table file) plus the optional
// scaling-law fit. With -json the full sweep result — whose per-point
// results are byte-identical to mobiserved payloads — is printed instead.
func runSweepFile(path, tableOut string, jsonOut bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := sweep.Parse(data)
	if err != nil {
		return err
	}
	res, err := sweep.Run(sp, sweep.Options{})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("sweep: %s  points: %d  axes: %s\n\n",
			res.Hash[:12], len(res.Points), strings.Join(res.AxisFields, ", "))
		if err := res.Table().WriteText(os.Stdout); err != nil {
			return err
		}
		if res.Fit != nil {
			fmt.Printf("\nscaling-law fit: %s\n", res.Fit)
		}
	}
	if tableOut != "" {
		f, err := os.Create(tableOut)
		if err != nil {
			return err
		}
		if strings.HasSuffix(tableOut, ".json") {
			err = res.Table().WriteJSON(f)
		} else {
			err = res.Table().WriteCSV(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("\ntable: %s\n", tableOut)
	}
	return nil
}

// buildScenario assembles the scenario from -spec or from the individual
// flags. Flags explicitly set alongside -spec override the file's fields.
func buildScenario(fs *flag.FlagSet, specPath, engine string, n, k, r int, seed uint64,
	mobSpec string, preys, reps, maxSteps, par int, curve bool,
	observe string, obsEvery, obsMax int, profile bool) (mobilenet.Scenario, error) {
	var observation *mobilenet.Observation
	if observe != "" {
		observation = &mobilenet.Observation{
			Observables: strings.Split(observe, ","),
			Every:       obsEvery,
			MaxPoints:   obsMax,
		}
	}
	sc := mobilenet.Scenario{
		Engine:      engine,
		Nodes:       n,
		Agents:      k,
		Radius:      r,
		Seed:        seed,
		Mobility:    mobSpec,
		Preys:       preys,
		Reps:        reps,
		MaxSteps:    maxSteps,
		Observe:     observation,
		Parallelism: par,
		Profile:     profile,
	}
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return mobilenet.Scenario{}, err
		}
		fromFile, err := mobilenet.ParseScenario(data)
		if err != nil {
			return mobilenet.Scenario{}, err
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["model"] {
			fromFile.Engine = engine
		}
		if set["n"] {
			fromFile.Nodes = n
		}
		if set["k"] {
			fromFile.Agents = k
		}
		if set["r"] {
			fromFile.Radius = r
		}
		if set["seed"] {
			fromFile.Seed = seed
		}
		if set["mobility"] {
			fromFile.Mobility = mobSpec
		}
		if set["preys"] {
			fromFile.Preys = preys
		}
		if set["reps"] {
			fromFile.Reps = reps
		}
		if set["max-steps"] {
			fromFile.MaxSteps = maxSteps
		}
		if set["par"] {
			fromFile.Parallelism = par
		}
		if set["observe"] {
			fromFile.Observe = observation
		}
		// -profile (or -trace-out implying it) turns profiling on over a
		// spec file; a file's own profile:true is honoured either way.
		fromFile.Profile = fromFile.Profile || profile
		sc = fromFile
	}
	if strings.EqualFold(strings.TrimSpace(sc.Engine), "broadcast") {
		// Flag-assembled broadcasts keep the historical mobisim behaviour
		// (always measure T_C; record the curve when asked). A -spec file
		// is left exactly as written — it is the same declarative object
		// mobiserved would serve, and silently injecting metrics would
		// change its hash and payload — except that an explicit -curve
		// flag still opts in. Case-insensitive: a spec file may spell the
		// engine any way Validate accepts.
		if specPath == "" {
			sc.Metrics = append(sc.Metrics, "coverage")
		}
		if curve {
			sc.Metrics = append(sc.Metrics, "curve")
		}
	}
	return sc, nil
}

// startProfiles arms the requested pprof outputs and returns the teardown
// to defer: it stops the CPU profile and snapshots the heap (after a final
// GC, so the profile shows retained memory rather than garbage). Either
// path may be empty. This is the first-class profiling entry point for
// perf work on the simulation hot paths; see EXPERIMENTS.md.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mobisim: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mobisim: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mobisim: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mobisim: memprofile:", err)
			}
		}
	}, nil
}

// canonicalEngine maps the historical -model aliases onto engine names.
func canonicalEngine(model string) string {
	switch model {
	case "cover":
		return "coverage"
	case "extinction":
		return "predator"
	default:
		return model
	}
}

func isTraceMobility(spec string) bool {
	name, _, _ := strings.Cut(spec, ":")
	return strings.ToLower(strings.TrimSpace(name)) == "trace"
}

// runTraceMobility executes the one non-scenario path: trace-replay motion,
// driven through the library API under the -max-steps cap (0 selects the
// engine's default).
func runTraceMobility(engine string, n, k, r int, seed uint64, mobSpec string, preys, maxSteps int, curve bool, traceOut string) error {
	mob, err := mobilenet.ParseMobility(mobSpec)
	if err != nil {
		return err
	}
	net, err := mobilenet.New(n, k, mobilenet.WithRadius(r), mobilenet.WithSeed(seed),
		mobilenet.WithMobility(mob), mobilenet.WithMaxSteps(maxSteps))
	if err != nil {
		return err
	}
	printHeader(net, engine, "trace-driven (not addressable)")
	if traceOut != "" {
		if engine != "broadcast" {
			return fmt.Errorf("-trace records broadcast runs only, engine is %s", engine)
		}
		m, err := mobility.Parse(mobSpec)
		if err != nil {
			return err
		}
		return tracedBroadcast(net, seed, r, maxSteps, m, traceOut)
	}
	var rep mobilenet.ScenarioRep
	switch engine {
	case "broadcast":
		res, err := net.Broadcast()
		if err != nil {
			return err
		}
		rep = mobilenet.ScenarioRep{Steps: res.Steps, Completed: res.Completed,
			Source: res.Source, CoverageSteps: res.CoverageSteps, Curve: res.InformedCurve}
	case "gossip":
		res, err := net.Gossip()
		if err != nil {
			return err
		}
		rep = mobilenet.ScenarioRep{Steps: res.Steps, Completed: res.Completed, CoverageSteps: -1}
	case "frog":
		res, err := net.FrogBroadcast()
		if err != nil {
			return err
		}
		rep = mobilenet.ScenarioRep{Steps: res.Steps, Completed: res.Completed, CoverageSteps: -1}
	case "coverage":
		res, err := net.CoverTime()
		if err != nil {
			return err
		}
		rep = mobilenet.ScenarioRep{Steps: res.Steps, Completed: res.Completed,
			Covered: res.Covered, CoverageSteps: -1}
	case "predator":
		if preys <= 0 {
			preys = k
		}
		res, err := net.Extinction(preys)
		if err != nil {
			return err
		}
		rep = mobilenet.ScenarioRep{Steps: res.Steps, Completed: res.Completed,
			Survivors: res.Survivors, CoverageSteps: -1}
	default:
		return fmt.Errorf("unknown model %q", engine)
	}
	printEngineResult(net, engine, rep, curve)
	return nil
}

func printHeader(net *mobilenet.Network, engine, scenarioID string) {
	fmt.Printf("grid: %dx%d (n=%d)  agents: k=%d  radius: r=%d  mobility: %s\n",
		net.Side(), net.Side(), net.Nodes(), net.Agents(), net.Radius(), net.Mobility())
	fmt.Printf("engine: %s  scenario: %s\n", engine, scenarioID)
	fmt.Printf("percolation radius r_c = %.2f  regime: %s\n",
		net.PercolationRadius(), regime(net))
	fmt.Printf("theoretical scale n/sqrt(k) = %.1f\n\n", net.ExpectedBroadcastScale())
}

func printEngineResult(net *mobilenet.Network, engine string, rep mobilenet.ScenarioRep, curve bool) {
	switch engine {
	case "broadcast":
		report("broadcast time T_B", rep.Steps, rep.Completed)
		if rep.CoverageSteps >= 0 {
			fmt.Printf("coverage time T_C = %d\n", rep.CoverageSteps)
		}
		if curve {
			printCurve(rep.Curve)
		}
	case "gossip":
		report("gossip time T_G", rep.Steps, rep.Completed)
	case "frog":
		report("frog-model broadcast time", rep.Steps, rep.Completed)
	case "coverage":
		report("cover time", rep.Steps, rep.Completed)
		fmt.Printf("nodes covered: %d/%d\n", rep.Covered, net.Nodes())
	case "predator":
		report("extinction time", rep.Steps, rep.Completed)
		fmt.Printf("surviving preys: %d\n", rep.Survivors)
	case "meeting":
		// One Lemma 3 trial: not meeting within the horizon is a
		// legitimate outcome, not a failed run.
		if rep.Completed {
			fmt.Printf("walks met in the lens after %d steps\n", rep.Steps)
		} else {
			fmt.Printf("no lens meeting within the %d-step horizon\n", rep.Steps)
		}
	}
}

// tracedBroadcast runs a broadcast step by step through the step driver,
// recording every position into a trace file for later replay/debugging.
// The run stops at full dissemination or at the step cap (maxSteps, 0 for
// the engine's default), and a capped run is reported as such. Recording
// requires a unit-step mobility model (lazy or waypoint); torus-wrapping
// models produce displacements the delta encoding rejects.
func tracedBroadcast(net *mobilenet.Network, seed uint64, radius, maxSteps int, mob mobility.Model, path string) error {
	g, err := grid.New(net.Side())
	if err != nil {
		return err
	}
	cfg := core.Config{
		Grid: g, K: net.Agents(), Radius: radius, Seed: seed, Source: 0, MaxSteps: maxSteps, Mobility: mob,
	}
	b, err := core.NewBroadcast(cfg)
	if err != nil {
		return err
	}
	rec, err := trace.NewRecorder(net.Side(), b.Population().Positions())
	if err != nil {
		return err
	}
	d := step.New(b, step.Hooks{Cap: cfg.StepCap()})
	for d.Next() {
		if err := rec.Record(b.Population().Positions()); err != nil {
			return err
		}
	}
	res := b.Result()
	report("broadcast time T_B", res.Steps, res.Completed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := rec.Trace().WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d agents x %d steps -> %s (%d bytes)\n",
		rec.K(), rec.Steps(), path, n)
	return nil
}

func regime(net *mobilenet.Network) string {
	if net.Subcritical() {
		return "subcritical (sparse, T_B = Θ̃(n/√k))"
	}
	return "supercritical (T_B polylog, Peres et al.)"
}

func report(name string, steps int, completed bool) {
	if completed {
		fmt.Printf("%s = %d\n", name, steps)
		return
	}
	fmt.Printf("%s: DID NOT COMPLETE within %d steps\n", name, steps)
}

func printCurve(curve []int) {
	fmt.Println("\ninformed agents over time (sampled):")
	stride := len(curve)/20 + 1
	for t := 0; t < len(curve); t += stride {
		fmt.Printf("  t=%7d  informed=%d\n", t, curve[t])
	}
	if len(curve) > 0 {
		fmt.Printf("  t=%7d  informed=%d\n", len(curve)-1, curve[len(curve)-1])
	}
}
