// Package prof provides the step-phase profiler and span tracer behind the
// repository's observability surface. It answers "where does a step's time
// actually go?" with a fixed phase vocabulary — move, index, label, spread,
// observe — accumulated per replicate by a StepProfile, and "where did this
// request's time go?" with a Trace of spans exportable as Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing).
//
// The profiler is zero-overhead when disabled: every method is safe on a nil
// receiver and returns immediately, so an engine instrumented with
//
//	p.Mark()
//	pop.Step()
//	p.Lap(prof.Move)
//
// compiles to a branch-and-skip when no profile is attached. An enabled
// StepProfile reads the wall clock once, as its anchor, and afterwards makes
// every Mark and Lap a single monotonic clock read (time.Since the anchor),
// accumulating into a fixed-size array — no maps, no allocation — so the
// engines' zero-alloc steady-state invariants hold with profiling on as
// well as off.
//
// The reads are the profiler's whole cost, and at the service's scale they
// are not negligible. A broadcast step has six boundaries, or five at
// k <= 32 agents, where the labeller checks every pair and laps no Index
// phase. Every per-step phase the service publishes carries one read:
// about 53 ns on a 2-vCPU Xeon host, where time.Now, which also reads the
// wall clock, took about 95 ns. Since small populations check every pair,
// the engine work under the reads is small: a fleet-sized replicate
// (k = 8 on a 256-node grid) took 174–217 µs profiled against 103–112 µs
// unprofiled. DESIGN.md §12 has the per-phase figures.
package prof

import "time"

// Phase identifies one slice of an engine step in the fixed vocabulary
// shared by every engine. Not every engine exercises every phase (pure
// coverage runs never index or label), but no engine invents phases outside
// this set, which is what keeps the telemetry label space bounded.
type Phase uint8

// The phase vocabulary, in canonical order.
const (
	// Move is motion-model stepping: advancing agent positions one tick.
	Move Phase = iota
	// Index is spatial-index construction: the CSR bucket build (counting
	// sort) that precedes component labelling. Populations of at most 32
	// agents are labelled from every pair and never enter it.
	Index
	// Label is connectivity resolution: union-find over candidate pairs
	// plus the dense deterministic label pass.
	Label
	// Spread is information propagation: flooding rumors or marks through
	// the labelled components (or captures, visits, meetings — whatever
	// the engine disseminates).
	Spread
	// Observe is measurement: per-step observable extraction, curve and
	// series recording.
	Observe
	// NumPhases is the size of the vocabulary; valid phases are < NumPhases.
	NumPhases
)

// phaseNames is indexed by Phase; the strings are the wire vocabulary used
// in JSON breakdowns and telemetry labels.
var phaseNames = [NumPhases]string{"move", "index", "label", "spread", "observe"}

// String returns the phase's wire name ("move", "index", ...).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// PhaseNames returns the full phase vocabulary in canonical order. The
// returned slice is freshly allocated.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	copy(out, phaseNames[:])
	return out
}

// StepProfile accumulates per-phase wall-clock time across the steps of one
// replicate. The accumulator is a fixed-size array, so steady-state use
// allocates nothing; all methods are no-ops on a nil receiver, so engines
// thread a possibly-nil *StepProfile unconditionally.
//
// Usage inside a step loop: call Mark once at the top of the step, then Lap
// after each phase completes. Lap charges the time since the previous Mark
// or Lap to the given phase with a single clock read, so consecutive laps
// tile the step exactly. A StepProfile is not safe for concurrent use; each
// replicate owns its own.
type StepProfile struct {
	totals [NumPhases]time.Duration
	steps  int
	// anchor is the instant of the first Mark since construction or Reset
	// (zero before it); last is the latest boundary as an offset from it.
	// Offsets are read with time.Since, which on an anchor carrying a
	// monotonic reading is one monotonic clock read, where time.Now would
	// read the wall clock as well.
	anchor time.Time
	last   time.Duration
}

// Mark records the current instant as the start of the next phase. Call it
// at the top of each step (and after any work that should not be charged to
// a phase). No-op on a nil receiver.
func (p *StepProfile) Mark() {
	if p == nil {
		return
	}
	if p.anchor.IsZero() {
		p.anchor = time.Now()
		return
	}
	p.last = time.Since(p.anchor)
}

// Lap charges the time elapsed since the last Mark or Lap to the given
// phase and re-marks, using one clock read. No-op on a nil receiver.
func (p *StepProfile) Lap(ph Phase) {
	if p == nil {
		return
	}
	now := time.Since(p.anchor)
	p.totals[ph] += now - p.last
	p.last = now
}

// StepDone counts one completed step. No-op on a nil receiver.
func (p *StepProfile) StepDone() {
	if p == nil {
		return
	}
	p.steps++
}

// Reset clears all accumulated totals and the step count for reuse across
// replicates. No-op on a nil receiver.
func (p *StepProfile) Reset() {
	if p == nil {
		return
	}
	*p = StepProfile{}
}

// Steps returns the number of completed steps counted so far (0 on nil).
func (p *StepProfile) Steps() int {
	if p == nil {
		return 0
	}
	return p.steps
}

// PhaseTotal returns the accumulated duration of one phase (0 on nil).
func (p *StepProfile) PhaseTotal(ph Phase) time.Duration {
	if p == nil || ph >= NumPhases {
		return 0
	}
	return p.totals[ph]
}

// Total returns the sum of all phase totals (0 on nil).
func (p *StepProfile) Total() time.Duration {
	if p == nil {
		return 0
	}
	var t time.Duration
	for _, d := range p.totals {
		t += d
	}
	return t
}

// Breakdown freezes the profile into its JSON-facing form. Phases with zero
// accumulated time are omitted (an engine that never indexes reports no
// index entry). Returns nil on a nil receiver or when nothing was recorded,
// so unprofiled runs marshal with no phases field at all.
func (p *StepProfile) Breakdown() *Breakdown {
	if p == nil {
		return nil
	}
	total := p.Total()
	if total <= 0 && p.steps == 0 {
		return nil
	}
	b := &Breakdown{
		Steps:     p.steps,
		Seconds:   make(map[string]float64, int(NumPhases)),
		Fractions: make(map[string]float64, int(NumPhases)),
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		d := p.totals[ph]
		if d <= 0 {
			continue
		}
		b.Seconds[phaseNames[ph]] = d.Seconds()
		if total > 0 {
			b.Fractions[phaseNames[ph]] = float64(d) / float64(total)
		}
	}
	return b
}

// Breakdown is the aggregated, serialisable view of one or more step
// profiles: per-phase wall-clock seconds and the fraction each phase
// contributes to the profiled total. Maps marshal with sorted keys, so the
// JSON form is deterministic for fixed values.
type Breakdown struct {
	// Steps is the number of profiled steps the breakdown covers.
	Steps int `json:"steps"`
	// Seconds maps phase name to accumulated wall-clock seconds. Only
	// phases with nonzero time appear.
	Seconds map[string]float64 `json:"seconds"`
	// Fractions maps phase name to its share of the profiled total, in
	// (0, 1]. Shares sum to 1 up to rounding.
	Fractions map[string]float64 `json:"fractions,omitempty"`
}

// TotalSeconds returns the sum of all per-phase seconds (0 on nil).
func (b *Breakdown) TotalSeconds() float64 {
	if b == nil {
		return 0
	}
	var t float64
	for _, s := range b.Seconds {
		t += s
	}
	return t
}

// MergeBreakdowns sums a set of breakdowns (nils skipped) into one,
// recomputing fractions over the merged total. Returns nil when every input
// is nil — so aggregating unprofiled replicates yields an absent field, not
// an empty object.
func MergeBreakdowns(bs ...*Breakdown) *Breakdown {
	var out *Breakdown
	for _, b := range bs {
		if b == nil {
			continue
		}
		if out == nil {
			out = &Breakdown{Seconds: make(map[string]float64, len(b.Seconds))}
		}
		out.Steps += b.Steps
		for name, s := range b.Seconds {
			out.Seconds[name] += s
		}
	}
	if out == nil {
		return nil
	}
	total := out.TotalSeconds()
	if total > 0 {
		out.Fractions = make(map[string]float64, len(out.Seconds))
		for name, s := range out.Seconds {
			out.Fractions[name] = s / total
		}
	}
	return out
}
