// Package mobilenet is a simulator and analysis toolkit for information
// dissemination in sparse mobile networks, reproducing the system studied
// in "Tight Bounds on Information Dissemination in Sparse Mobile Networks"
// (Pettarin, Pietracaprina, Pucci, Upfal — PODC 2011, arXiv:1101.4609).
//
// # Model
//
// k agents perform independent lazy random walks on an n-node square grid:
// at each synchronized step an agent moves to each of its grid neighbours
// with probability 1/5 and stays put otherwise, which keeps the uniform
// placement stationary. Two agents are connected in the visibility graph
// G_t(r) when their Manhattan distance is at most the transmission radius
// r, and a rumor floods an entire connected component in one time step
// (radio propagation is much faster than motion).
//
// The paper proves that below the percolation radius r_c ≈ sqrt(n/k) the
// broadcast time is Θ̃(n/√k) for every transmission radius — surprisingly
// independent of r — and this module's experiment suite (E1-E17, described
// in EXPERIMENTS.md, with the architecture in DESIGN.md) validates each
// theorem, lemma and corollary empirically.
//
// # Quick start
//
//	net, err := mobilenet.New(128*128, 64, mobilenet.WithSeed(42))
//	if err != nil { ... }
//	res, err := net.Broadcast()
//	fmt.Println("T_B =", res.Steps)
//
// # Mobility models
//
// The motion law is pluggable. The default is the paper's lazy walk, and
// four alternatives ship with the module:
//
//   - LazyWalk: the paper's §2 kernel (default). The only model the
//     Θ̃(n/√k) bounds are proved for; reproduces pre-subsystem results
//     bit for bit under equal seeds.
//   - RandomWaypoint: repeatedly walk toward a uniform destination node,
//     resting on arrival. Occupancy is centre-biased (the classical
//     waypoint pathology), not uniform.
//   - LevyFlight: truncated power-law jumps with uniform headings, on the
//     torus; uniform occupancy stays exactly stationary.
//   - Ballistic: straight lattice lines with a per-tick turn-and-rest
//     probability, on the torus; uniform occupancy stays stationary.
//   - TraceReplay: replay a recorded trajectory (looping or truncating),
//     the bridge to empirical mobility datasets.
//
// Select a model with WithMobility:
//
//	net, _ := mobilenet.New(128*128, 64, mobilenet.WithMobility(mobilenet.LevyFlight(1.6, 0)))
//
// Every simulation a Network runs — Broadcast, Gossip, FrogBroadcast,
// CoverTime, Extinction — honours the configured model. ParseMobility
// converts CLI-style specs such as "levy:alpha=1.6,max=40"; cmd/mobisim
// exposes the same grammar as its -mobility flag.
//
// # Scenario specs
//
// A Scenario declares one simulation as plain data — engine (broadcast,
// gossip, frog, coverage, predator), arena, population, radius, seed,
// replicates, mobility and requested metrics — and runs through one shared
// dispatch path:
//
//	sc, _ := mobilenet.ParseScenario([]byte(`{"engine":"broadcast","nodes":16384,"agents":64,"seed":1}`))
//	res, _ := mobilenet.RunScenario(sc)
//	fmt.Println("T_B =", res.Reps[0].Steps)
//
// Scenarios canonicalise to a content hash (Scenario.Hash) usable as a
// cache key; cmd/mobiserved serves them over HTTP with hash-keyed result
// caching, returning payloads byte-identical to a local RunScenario call.
//
// # Parameter sweeps
//
// The paper's results are scaling laws, and a scaling law is measured as
// a sweep. A Sweep is a base Scenario plus axes — value lists or integer
// ranges over any numeric or enum scenario field, cartesian or zipped —
// that expands deterministically into canonical scenarios, runs them on
// a bounded pool with per-point statistics (mean/stddev/median/95% CI)
// and an optional log-log scaling-law fit, and hashes
// order-independently over the expanded point set:
//
//	sw, _ := mobilenet.ParseSweep([]byte(`{
//	  "base": {"engine":"broadcast","nodes":16384,"agents":8,"radius":0,"seed":1,"reps":12},
//	  "axes": [{"field":"agents","values":[8,32,128,512]}],
//	  "fit":  "agents"}`))
//	res, _ := mobilenet.RunSweep(sw)
//	fmt.Printf("T_B ~ k^%.2f\n", res.Fit.Alpha) // ≈ -0.5, the n/√k law
//
// The same JSON drives `mobisim -sweep` and the mobiserved POST
// /v1/sweeps batch endpoint, where every point is deduplicated against
// the hash-keyed result cache.
//
// # Package tree
//
// Public API (this package): mobilenet.go (Network, options, engines),
// scenario.go (Scenario specs), sweep.go (Sweep specs), observe.go
// (per-step observation: Observation, WithObservations, Series), doc.go.
//
// Commands:
//
//   - cmd/mobisim — single-run and sweep CLI (specs, tracing, profiling)
//   - cmd/mobiserved — the HTTP simulation service (runs + sweep batches)
//   - cmd/mobibench — closed-loop load generator for the service (the
//     load-, chaos- and fleet-smoke CI driver)
//   - cmd/experiments, cmd/paperrepro — the E1–E17/X1–X8 validation suite
//   - cmd/percmap, cmd/tracecat — percolation maps, trace inspection
//   - cmd/doccheck — CI gate for godoc coverage and Markdown links
//
// Internal layers, substrate to surface:
//
//   - internal/grid, internal/rng, internal/walk — arena, deterministic
//     randomness, the §2 lazy-walk kernel
//   - internal/mobility — pluggable motion laws (lazy, waypoint, Lévy,
//     ballistic, trace replay)
//   - internal/agent, internal/visibility, internal/unionfind,
//     internal/bitset — populations and the CSR component labeller (the
//     per-step hot path)
//   - internal/core, internal/frog, internal/coverage,
//     internal/predator, internal/meeting, internal/barrier — the
//     dissemination engines and lemma probes
//   - internal/step — the one step driver every engine runs under: an
//     engine is a state machine (step, done, time, sample) and the driver
//     owns the step cap, cancellation, profiling and observation cadence
//   - internal/obs — the per-step observation pipeline: time-series
//     observables recorded with zero step-loop allocation, aggregated
//     across replicates, rendered as NDJSON/CSV
//   - internal/scenario — declarative specs, canonicalisation, content
//     hashes, the Runner registry
//   - internal/sweep — declarative parameter sweeps over scenarios
//   - internal/telemetry — dependency-free metrics kernel: atomic
//     counters, gauges, log-bucketed latency histograms, Prometheus
//     text exposition
//   - internal/simserve — worker pool, result cache, HTTP service,
//     request-lifecycle stage histograms
//   - internal/experiments, internal/stats, internal/tableio,
//     internal/plot, internal/theory — the validation suite and its
//     statistics, rendering and closed-form envelopes
//   - internal/percolation, internal/trace — phase structure, trajectory
//     format
//
// The examples/ directory contains runnable scenarios (MANET radius
// sweeps, epidemic spreading, wildlife-tracking gossip, the Frog model,
// the cross-model mobility contrast in examples/levy, the predator-prey
// fleet sweep) plus ready-to-run sweep specs under examples/sweeps.
package mobilenet
