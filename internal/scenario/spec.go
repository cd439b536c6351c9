// Package scenario makes "one simulation" a declarative, named value. A
// Spec picks an engine (broadcast, gossip, frog, coverage, predator), the
// arena and population, the dissemination parameters and the requested
// metrics; it encodes to JSON, validates, and canonicalises to a
// content-addressed hash usable as a cache key. Behind the Spec, every
// engine is driven through the single Runner interface, so the CLI, the
// examples, the public API and the simulation service (internal/simserve)
// all share one dispatch path instead of bespoke per-engine wiring.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"mobilenet/internal/grid"
	"mobilenet/internal/meeting"
	"mobilenet/internal/mobility"
	"mobilenet/internal/obs"
	"mobilenet/internal/rng"
)

// Engine names. These are the canonical values of Spec.Engine; Lookup
// resolves them to Runners.
const (
	EngineBroadcast = "broadcast"
	EngineGossip    = "gossip"
	EngineFrog      = "frog"
	EngineCoverage  = "coverage"
	EnginePredator  = "predator"
	// EngineMeeting runs one Lemma 3 meeting trial per replicate: two
	// synchronized lazy walks start Radius apart and the replicate reports
	// whether (Completed) and when (Steps) they met inside the lens within
	// MaxSteps (0 selects the lemma's d² horizon). The fraction of
	// completed replicates estimates the meeting probability p(d), so the
	// whole estimate is one multi-rep spec — which is how experiment E6
	// rides the sweep subsystem. The arena is derived from Radius alone
	// (meeting.ArenaSide); Nodes and Agents are canonicalised away.
	EngineMeeting = "meeting"
)

// Metric names requestable in Spec.Metrics.
const (
	// MetricCurve records a per-step progress curve: the informed-agent
	// count (broadcast) or the covered-node count (coverage).
	MetricCurve = "curve"
	// MetricCoverage tracks the informed area and reports the coverage
	// time T_C (broadcast only).
	MetricCoverage = "coverage"
)

// SourceRandom selects a uniformly random source agent in Spec.Source.
const SourceRandom = -1

// Spec declares one simulation. The zero values of the optional fields
// select engine defaults, so the minimal useful spec is just engine, nodes
// and agents. Specs are plain data: they marshal to JSON, validate without
// side effects, and hash to a canonical content address.
type Spec struct {
	// Label is an optional human-readable name. It is ignored by
	// canonicalisation and hashing: two specs differing only in label are
	// the same simulation.
	Label string `json:"label,omitempty"`
	// Engine selects the dissemination process; see the Engine constants.
	Engine string `json:"engine"`
	// Nodes is the number of grid nodes n, rounded up to the next perfect
	// square exactly as mobilenet.New does.
	Nodes int `json:"nodes"`
	// Agents is the population size k (predators, for the predator engine).
	Agents int `json:"agents"`
	// Radius is the transmission/capture radius in Manhattan distance.
	Radius int `json:"radius"`
	// Seed drives all randomness. Replicate rep runs under RepSeed(Seed, rep).
	Seed uint64 `json:"seed"`
	// Source is the initially informed/active agent for broadcast and frog;
	// SourceRandom picks uniformly. Other engines ignore it.
	Source int `json:"source,omitempty"`
	// MaxSteps caps the run; 0 selects the engine's theory-derived default.
	MaxSteps int `json:"max_steps,omitempty"`
	// Reps is the number of replicates; 0 selects 1.
	Reps int `json:"reps,omitempty"`
	// Preys is the prey count for the predator engine; 0 selects Agents.
	Preys int `json:"preys,omitempty"`
	// Rumors is the distinct-rumor count |M| for gossip; 0 selects the
	// classical all-to-all |M| = k.
	Rumors int `json:"rumors,omitempty"`
	// Mobility is a mobility.Parse spec string; empty selects the paper's
	// lazy walk. Trace-driven motion ("trace:FILE") is rejected: the
	// trajectory contents live outside the spec, so the hash could not
	// content-address the simulation.
	Mobility string `json:"mobility,omitempty"`
	// Metrics lists the requested extra measurements; see the Metric
	// constants. Metrics an engine cannot produce are dropped by
	// canonicalisation.
	Metrics []string `json:"metrics,omitempty"`
	// Observe requests per-step time-series observables; see
	// internal/obs. Canonicalisation filters the request to the engine's
	// vocabulary (Observables), sorts and deduplicates the names, and
	// makes the cadence default explicit; a request nothing survives is
	// dropped entirely. Unlike Parallelism, the observe block IS part of
	// the content hash: observable names and cadence change the result
	// payload (the recorded series), so two specs differing in observe
	// are different simulations (DESIGN.md §10).
	Observe *obs.Spec `json:"observe,omitempty"`
	// Parallelism sets the component labeller's worker count for engines
	// that rebuild visibility components each step (broadcast, gossip,
	// frog): 0 selects the automatic policy, 1 forces sequential, larger
	// values request up to that many workers. Like Label it is an
	// execution-only knob: results are bit-for-bit identical at every
	// setting, so canonicalisation zeroes it and it never splits the
	// content hash or the result cache. It governs library (scenario.Run)
	// and CLI runs only; the simulation service ignores it, because its
	// worker pool already fans replicates across every core and pins each
	// replicate to sequential labelling.
	Parallelism int `json:"parallelism,omitempty"`
	// Profile enables per-replicate step-phase profiling (internal/prof):
	// each replicate's Rep carries a phases breakdown (move, index, label,
	// spread, observe) and the Result aggregates them. Like Parallelism it
	// is an execution-only knob — simulation outcomes are identical either
	// way and the measured timings are non-deterministic — so
	// canonicalisation zeroes it and it never splits the content hash. The
	// simulation service strips the per-rep breakdowns before assembly
	// (feeding them to telemetry and traces instead), keeping cached
	// payloads byte-identical to unprofiled runs.
	Profile bool `json:"profile,omitempty"`
}

// Parse decodes a Spec from JSON, rejecting unknown fields and trailing
// data so that typoed parameter names — or a second, accidentally
// concatenated spec — fail loudly instead of silently running the wrong
// simulation.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing data after the spec")
	}
	return s, nil
}

// Validate checks the spec without resolving defaults. A nil error
// guarantees Canonical and Run will not fail on parameter grounds.
func (s Spec) Validate() error {
	engine := strings.ToLower(strings.TrimSpace(s.Engine))
	if _, ok := Lookup(engine); !ok {
		return fmt.Errorf("scenario: unknown engine %q (want %s)", s.Engine, strings.Join(Engines(), "|"))
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("scenario: nodes must be positive, got %d", s.Nodes)
	}
	if s.Agents <= 0 {
		return fmt.Errorf("scenario: agents must be positive, got %d", s.Agents)
	}
	if s.Radius < 0 {
		return fmt.Errorf("scenario: negative radius %d", s.Radius)
	}
	if s.MaxSteps < 0 {
		return fmt.Errorf("scenario: negative max_steps %d", s.MaxSteps)
	}
	if s.Reps < 0 {
		return fmt.Errorf("scenario: negative reps %d", s.Reps)
	}
	if s.Source != SourceRandom && (s.Source < 0 || s.Source >= s.Agents) {
		return fmt.Errorf("scenario: source %d out of range [0,%d)", s.Source, s.Agents)
	}
	if s.Preys < 0 {
		return fmt.Errorf("scenario: negative preys %d", s.Preys)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("scenario: negative parallelism %d", s.Parallelism)
	}
	if s.Rumors < 0 || s.Rumors > s.Agents {
		return fmt.Errorf("scenario: rumors %d outside [0,%d]", s.Rumors, s.Agents)
	}
	if engine == EngineMeeting {
		if s.Radius < 1 {
			return fmt.Errorf("scenario: the meeting engine needs radius >= 1 (the initial separation d), got %d", s.Radius)
		}
		// The lemma is stated for the paper's lazy walk; silently running a
		// different motion law would estimate a different quantity.
		if s.Mobility != "" {
			m, err := mobility.Parse(s.Mobility)
			if err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			if mobility.CanonicalSpec(m) != mobility.Default().Name() {
				return fmt.Errorf("scenario: the meeting engine runs Lemma 3's lazy walk only, got mobility %q", s.Mobility)
			}
		}
	}
	if s.Mobility != "" {
		// Reject the trace scheme by name, before mobility.Parse would
		// open the referenced file: specs arrive from untrusted HTTP
		// clients, and probing server-side paths (or blocking on FIFOs)
		// on their behalf is not acceptable.
		name, _, _ := strings.Cut(s.Mobility, ":")
		if strings.ToLower(strings.TrimSpace(name)) == "trace" {
			return fmt.Errorf("scenario: trace-driven mobility is not scenario-addressable (the trajectory lives outside the spec)")
		}
		m, err := mobility.Parse(s.Mobility)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		// Parse defers parameter-range checks (negative pause, alpha <= 0,
		// turn > 1) to Bind time; surface them here by binding a single
		// agent against the spec's grid — grids are two ints, and k=1
		// keeps the throwaway state tiny — so a nil Validate really does
		// mean Run cannot fail on parameter grounds.
		g, err := grid.FromNodes(s.Nodes)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if _, err := m.Bind(g, 1, rng.New(1)); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	for _, m := range s.Metrics {
		switch m {
		case MetricCurve, MetricCoverage:
		default:
			return fmt.Errorf("scenario: unknown metric %q (want %s|%s)", m, MetricCurve, MetricCoverage)
		}
	}
	if s.Observe != nil {
		if err := s.Observe.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// Canonical validates the spec and resolves it to its canonical form:
// engine name normalised, node count rounded to the realised square,
// defaults made explicit where they are engine-independent, fields the
// engine ignores zeroed, metrics filtered to the engine's vocabulary and
// sorted, and the mobility spec re-rendered canonically (grid-independent
// bind defaults resolved; see mobility.CanonicalSpec). Two specs that
// describe the same simulation canonicalise identically — the property
// Hash builds on — with one conservative exception: a mobility parameter
// left to a grid-dependent default (levy's max jump) hashes differently
// from the same value spelled explicitly, splitting the cache but never
// returning a wrong result.
func (s Spec) Canonical() (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	c := s
	c.Label = ""
	c.Parallelism = 0 // execution-only: identical results at every setting
	c.Profile = false // execution-only: timings never split the cache
	c.Engine = strings.ToLower(strings.TrimSpace(s.Engine))
	g, err := grid.FromNodes(s.Nodes)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	c.Nodes = g.N()
	if c.Reps == 0 {
		c.Reps = 1
	}
	if c.Mobility == "" {
		c.Mobility = mobility.Default().Name()
	} else {
		m, err := mobility.Parse(c.Mobility)
		if err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
		c.Mobility = mobility.CanonicalSpec(m)
	}
	// Engine-irrelevant knobs are zeroed so they cannot split the cache.
	if c.Engine == EngineCoverage {
		c.Radius = 0 // plain cover time has no transmission radius
	}
	if c.Engine == EngineMeeting {
		// The trial geometry is a function of the separation d (= Radius)
		// alone: the arena side is meeting.ArenaSide(d) and exactly two
		// walkers take part, so the user-supplied Nodes and Agents cannot
		// be allowed to split the cache. The d² default horizon is made
		// explicit so the effective step bound is visible in the hash (and
		// to service-side admission checks).
		side := meeting.ArenaSide(c.Radius)
		c.Nodes = side * side
		c.Agents = 2
		c.Mobility = mobility.Default().Name()
		if c.MaxSteps == 0 {
			c.MaxSteps = c.Radius * c.Radius
		}
	}
	if c.Engine != EnginePredator {
		c.Preys = 0
	} else if c.Preys == 0 {
		c.Preys = c.Agents
	}
	if c.Engine != EngineGossip || c.Rumors == c.Agents {
		c.Rumors = 0 // |M| = k is the classical gossip, spelled 0
	}
	if c.Engine != EngineBroadcast && c.Engine != EngineFrog {
		c.Source = 0
	}
	c.Metrics = canonicalMetrics(c.Engine, s.Metrics)
	if s.Observe != nil {
		vocab := engineObservables[c.Engine]
		ob, ok, err := s.Observe.Canonical(func(n string) bool { return vocab[n] })
		if err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
		if ok {
			c.Observe = &ob
		} else {
			c.Observe = nil
		}
	}
	return c, nil
}

// engineObservables is each engine's observable vocabulary: the obs names
// its runner can actually fill. Canonicalisation filters observe requests
// down to it, mirroring canonicalMetrics.
var engineObservables = map[string]map[string]bool{
	EngineBroadcast: {obs.Informed: true, obs.Components: true, obs.Largest: true, obs.Coverage: true, obs.Frontier: true},
	EngineGossip:    {obs.Informed: true, obs.Components: true, obs.Largest: true},
	EngineFrog:      {obs.Informed: true, obs.Components: true, obs.Largest: true},
	EngineCoverage:  {obs.Informed: true, obs.Coverage: true},
	EnginePredator:  {obs.Informed: true},
	EngineMeeting:   {obs.Meeting: true},
}

// Observables returns the observable names the engine can record, sorted;
// it returns nil for unknown engines.
func Observables(engine string) []string {
	vocab := engineObservables[strings.ToLower(strings.TrimSpace(engine))]
	if len(vocab) == 0 {
		return nil
	}
	out := make([]string, 0, len(vocab))
	for n := range vocab {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// canonicalMetrics keeps the metrics the engine can produce, deduplicated
// and sorted.
func canonicalMetrics(engine string, metrics []string) []string {
	keep := map[string]bool{}
	for _, m := range metrics {
		switch {
		case m == MetricCurve && (engine == EngineBroadcast || engine == EngineCoverage):
			keep[m] = true
		case m == MetricCoverage && engine == EngineBroadcast:
			keep[m] = true
		}
	}
	if len(keep) == 0 {
		return nil
	}
	out := make([]string, 0, len(keep))
	for m := range keep {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// HasMetric reports whether the spec requests the named metric.
func (s Spec) HasMetric(name string) bool {
	for _, m := range s.Metrics {
		if m == name {
			return true
		}
	}
	return false
}

// Hash returns the canonical content hash of the spec: the hex SHA-256 of
// the canonical form's JSON encoding. Equal hashes mean equal simulations
// (same engine, parameters, seed schedule and metrics), so the hash is a
// sound key for result caches and deduplication.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return HashCanonical(c)
}

// HashCanonical hashes an already-canonical spec without re-validating it.
// Callers that just canonicalised (the service's submit path) use this to
// avoid paying validation twice; for anything else use Hash.
func HashCanonical(c Spec) (string, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// RepSeed returns the seed replicate rep of the spec's seed schedule runs
// under. Replicate 0 runs under the master seed itself, so a single-rep
// scenario reproduces a direct library run with the same seed bit for bit;
// later replicates use the shared position-based derivation
// (rng.DeriveSeed), so parallel execution is scheduling-independent.
func RepSeed(master uint64, rep int) uint64 {
	if rep == 0 {
		return master
	}
	return rng.DeriveSeed(master, 0, rep)
}
