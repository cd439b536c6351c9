package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
)

// broadcastSpec is the broadcast-k1e5 op: k = 100 000 agents on a 6.4 M-node
// torus (density 64, r_c = 8) at r = 1 under the lazy walk, capped at 256
// steps — far below T_B, so every op simulates exactly 256 steps — one
// replicate, sequential labelling. Smoke scale keeps the shape at k = 1000.
func broadcastSpec(seed uint64, smoke bool) scenario.Spec {
	sp := scenario.Spec{
		Engine: scenario.EngineBroadcast, Nodes: 6_400_000, Agents: 100_000, Radius: 1,
		Seed: seed, MaxSteps: 256, Reps: 1, Parallelism: 1,
	}
	if smoke {
		sp.Nodes, sp.Agents, sp.MaxSteps = 64_000, 1000, 32
	}
	return sp
}

// radiusSweepSpec is the radius-sweep op: the paper's headline experiment
// at k = 1000, n = 64 000, r in {0, 1, 2, 4, 8}, each point run to
// completion. One replicate per point keeps an op near 0.7 s, so a window
// holds a few dozen ops: with four replicates (about 2.5 s per op on a
// 2-vCPU Xeon) the per-run medians spread 19% between runs.
func radiusSweepSpec(base uint64, smoke bool) sweep.Spec {
	sp := sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 64_000, Agents: 1000, Seed: base, Reps: 1},
		Axes: []sweep.Axis{{Field: "radius", Values: []any{int64(0), int64(1), int64(2), int64(4), int64(8)}}},
	}
	if smoke {
		sp.Base.Nodes, sp.Base.Agents = 4096, 64
	}
	return sp
}

// digest is the hex SHA-256 of a payload's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// stripPhases removes the timing-only phase breakdowns a profiled run adds,
// so traced and untraced ops encode identically.
func stripPhases(res *scenario.Result) {
	res.Phases = nil
	for i := range res.Reps {
		res.Reps[i].Phases = nil
	}
}

// agentSteps is the simulated work in a result: steps summed over
// replicates, times the agent count.
func agentSteps(res *scenario.Result, agents int) float64 {
	var steps int
	for _, r := range res.Reps {
		steps += r.Steps
	}
	return float64(steps) * float64(agents)
}

// simLayers accumulates what traced simulation ops measure per layer.
type simLayers struct {
	mu        sync.Mutex
	phase     map[string]float64 // seconds per step phase
	steps     int                // profiled steps
	hashUS    []float64          // Spec.Canonical + HashCanonical
	repMS     []float64          // per-replicate spans of RunWithTrace
	expandMS  []float64
	assembMS  []float64
	pointBusy time.Duration // sum of RunPoint spans
	poolSpan  time.Duration // workers x sweep makespan
}

// addResult folds a profiled result's phases and replicate count in.
func (l *simLayers) addResult(res *scenario.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.phase == nil {
		l.phase = make(map[string]float64)
	}
	for _, r := range res.Reps {
		if r.Phases == nil {
			continue
		}
		l.steps += r.Phases.Steps
		for name, s := range r.Phases.Seconds {
			l.phase[name] += s
		}
	}
}

// timeHash times the scenario layer's canonicalisation and hashing of spec
// and returns the hash.
func (l *simLayers) timeHash(spec scenario.Spec) (string, error) {
	t0 := time.Now()
	c, err := spec.Canonical()
	if err != nil {
		return "", err
	}
	h, err := scenario.HashCanonical(c)
	d := time.Since(t0)
	l.mu.Lock()
	l.hashUS = append(l.hashUS, float64(d)/float64(time.Microsecond))
	l.mu.Unlock()
	return h, err
}

func (l *simLayers) addRepSpans(pt *prof.Trace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range pt.Spans() {
		l.repMS = append(l.repMS, ms(s.Dur))
	}
}

func (l *simLayers) metrics() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]float64{
		"scenario.canonical_hash_us": median(l.hashUS),
		"scenario.runrep_ms":         mean(l.repMS),
		"sweep.expand_ms":            mean(l.expandMS),
		"sweep.assemble_ms":          mean(l.assembMS),
	}
	if l.steps > 0 {
		perStep := func(phases ...string) float64 {
			var s float64
			for _, p := range phases {
				s += l.phase[p]
			}
			return s * 1e3 / float64(l.steps)
		}
		out["mobility.move_ms_per_step"] = perStep("move")
		out["visibility.index_ms_per_step"] = perStep("index")
		out["visibility.label_ms_per_step"] = perStep("label")
		out["core.spread_ms_per_step"] = perStep("spread", "observe")
	}
	if l.poolSpan > 0 {
		out["sweep.pool_idle_frac"] = 1 - float64(l.pointBusy)/float64(l.poolSpan)
	}
	return out
}

// repLayer files every span of a replicate trace under the scenario layer.
func repLayer(prof.Span) string { return "scenario" }

// traceRun runs one profiled replicate set under span parent and returns
// the result with its phases folded into l and stripped.
func traceRun(tr *tracer, l *simLayers, parent int, spec scenario.Spec) (*scenario.Result, error) {
	spec.Profile = true
	pt := prof.NewTrace()
	res, err := scenario.RunWithTrace(spec, pt)
	if err != nil {
		return nil, err
	}
	spans := pt.Spans()
	for i, id := range tr.adopt(parent, pt, repLayer) {
		if i < len(res.Reps) && res.Reps[i].Phases != nil {
			tr.addPhases(id, pt.Epoch().Add(spans[i].Start+spans[i].Dur), res.Reps[i].Phases.Seconds)
		}
	}
	l.addRepSpans(pt)
	l.addResult(res)
	stripPhases(res)
	return res, nil
}

// broadcastWorkload is broadcast-k1e5: one client repeating one spec.
type broadcastWorkload struct {
	spec   scenario.Spec
	want   string // digest of the warm-up op; every op must reproduce it
	pinned string // pinned digest for this seed, "" when none is pinned
	lay    simLayers
}

func newBroadcast(cfg config) (workload, error) {
	w := &broadcastWorkload{spec: broadcastSpec(cfg.seed, cfg.smoke)}
	if !cfg.smoke {
		w.pinned = pinnedBroadcast[cfg.seed]
	}
	return w, nil
}

func (w *broadcastWorkload) clients() int { return 1 }

// setup runs the untimed warm-up op and fixes the digest every op must
// reproduce.
func (w *broadcastWorkload) setup() error {
	res, err := scenario.Run(w.spec)
	if err != nil {
		return err
	}
	if w.want, err = digest(res); err != nil {
		return err
	}
	return checkPinned("broadcast-k1e5", w.want, w.pinned)
}

// checkPinned compares a warm-up digest with the pinned one, when one is
// pinned, and reports which it was.
func checkPinned(name, got, pinned string) error {
	if pinned != "" && got != pinned {
		return fmt.Errorf("%w: %s payload sha256 %s, pinned %s", errWrongPayload, name, got, pinned)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s payload sha256 %s (pinned: %v)\n", name, got, pinned != "")
	return nil
}

func (w *broadcastWorkload) op(c, i int, tr *tracer) (float64, error) {
	var (
		res *scenario.Result
		err error
	)
	if tr == nil {
		res, err = scenario.Run(w.spec)
	} else {
		root := tr.begin(noParent, "client", "op broadcast-k1e5")
		call := tr.begin(root, "scenario", "RunWithTrace")
		res, err = traceRun(tr, &w.lay, call, w.spec)
		tr.end(call)
		tr.end(root)
		tr.markFixed(root)
		if err == nil {
			var h string
			if h, err = w.lay.timeHash(w.spec); err == nil && h != res.Hash {
				err = fmt.Errorf("%w: result hash %s, spec hashes to %s", errWrongPayload, res.Hash, h)
			}
		}
	}
	if err != nil {
		return 0, err
	}
	d, err := digest(res)
	if err != nil {
		return 0, err
	}
	if d != w.want {
		return 0, fmt.Errorf("%w: op digest %s, want %s", errWrongPayload, d, w.want)
	}
	return agentSteps(res, w.spec.Agents), nil
}

func (w *broadcastWorkload) verify() error              { return nil }
func (w *broadcastWorkload) layers() map[string]float64 { return w.lay.metrics() }
func (w *broadcastWorkload) close()                     {}

// sweepWorkload is radius-sweep: one client repeating one library sweep on
// the default pool (GOMAXPROCS workers).
type sweepWorkload struct {
	spec   sweep.Spec
	want   string
	pinned string
	lay    simLayers
}

func newRadiusSweep(cfg config) (workload, error) {
	if cfg.smoke {
		return &sweepWorkload{spec: radiusSweepSpec(cfg.seed, true)}, nil
	}
	v := vettedSweepSeeds[cfg.seed%uint64(len(vettedSweepSeeds))]
	return &sweepWorkload{spec: radiusSweepSpec(v.base, false), pinned: v.digest}, nil
}

func (w *sweepWorkload) clients() int { return 1 }

func (w *sweepWorkload) setup() error {
	res, err := sweep.Run(w.spec, sweep.Options{})
	if err != nil {
		return err
	}
	if w.want, err = digest(res); err != nil {
		return err
	}
	return checkPinned("radius-sweep", w.want, w.pinned)
}

func (w *sweepWorkload) op(c, i int, tr *tracer) (float64, error) {
	var (
		res *sweep.Result
		err error
	)
	if tr == nil {
		res, err = sweep.Run(w.spec, sweep.Options{})
	} else {
		res, err = w.tracedOp(tr)
	}
	if err != nil {
		return 0, err
	}
	d, err := digest(res)
	if err != nil {
		return 0, err
	}
	if d != w.want {
		return 0, fmt.Errorf("%w: op digest %s, want %s", errWrongPayload, d, w.want)
	}
	var steps float64
	for _, p := range res.Points {
		steps += agentSteps(p.Result, p.Spec.Agents)
	}
	return steps, nil
}

// tracedOp runs the sweep with a span around each layer call: the
// benchmark's own Expand, sweep.Run with every point timed through
// Options.RunPoint, and the benchmark's own Assemble of the collected
// point results, which must reproduce the pool's result exactly.
func (w *sweepWorkload) tracedOp(tr *tracer) (*sweep.Result, error) {
	root := tr.begin(noParent, "client", "op radius-sweep")
	defer tr.markFixed(root)
	defer tr.end(root)

	t0 := time.Now()
	points, err := w.spec.Expand()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.add(root, "sweep", "Expand", t0, t1)

	results := make([]*scenario.Result, len(points))
	var busy time.Duration
	var mu sync.Mutex
	call := tr.begin(root, "sweep", "sweep.Run")
	runStart := time.Now()
	res, err := sweep.Run(w.spec, sweep.Options{
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			p0 := time.Now()
			id := tr.begin(call, "sweep", "RunPoint r="+strconv.Itoa(spec.Radius))
			// The default RunPoint's execution policy: the pool is the
			// parallelism layer, so each point labels sequentially.
			spec.Parallelism = 1
			r, err := traceRun(tr, &w.lay, id, spec)
			tr.end(id)
			if err == nil {
				_, err = w.lay.timeHash(spec)
			}
			mu.Lock()
			busy += time.Since(p0)
			mu.Unlock()
			return r, err
		},
		OnPoint: func(p sweep.Point, r *scenario.Result) { results[p.Index] = r },
	})
	makespan := time.Since(runStart)
	tr.end(call)
	if err != nil {
		return nil, err
	}

	t2 := time.Now()
	again, err := sweep.Assemble(w.spec, points, results)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.add(root, "sweep", "Assemble", t2, t3)
	a, err := digest(res)
	if err != nil {
		return nil, err
	}
	if b, err := digest(again); err != nil || a != b {
		return nil, fmt.Errorf("%w: benchmark assembly %s (%v) differs from sweep.Run's %s", errWrongPayload, b, err, a)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(points) {
		workers = len(points)
	}
	w.lay.mu.Lock()
	w.lay.expandMS = append(w.lay.expandMS, ms(t1.Sub(t0)))
	w.lay.assembMS = append(w.lay.assembMS, ms(t3.Sub(t2)))
	w.lay.pointBusy += busy
	w.lay.poolSpan += time.Duration(workers) * makespan
	w.lay.mu.Unlock()
	return res, nil
}

func (w *sweepWorkload) verify() error              { return nil }
func (w *sweepWorkload) layers() map[string]float64 { return w.lay.metrics() }
func (w *sweepWorkload) close()                     {}
