package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"mobilenet/internal/cluster"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
)

const (
	// fleetWarmOps is how many untimed sweeps fleet-hop runs before its
	// window: enough to warm both servers' pools and connections, so
	// set-up is never a bare boot of a few milliseconds.
	fleetWarmOps = 64
	// fleetSampleEvery: about one sweep in this many is compared byte for
	// byte with a library run after the window.
	fleetSampleEvery = 16
	// fleetScheduleSize is the ops drawn before the window, several times
	// what a 60-s window completes.
	fleetScheduleSize = 1 << 16
)

// fleetSweep is a fleet-hop op: two unique cold points (k = 8 and 16 on a
// 256-node torus, one replicate), the shape cmd/mobibench's fleet
// workload submits.
func fleetSweep(seed uint64) sweep.Spec {
	return sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 8, Seed: seed, Reps: 1},
		Axes: []sweep.Axis{{Field: "agents", Values: []any{int64(8), int64(16)}}},
	}
}

// fleetSample is a sweep kept for the post-window library comparison.
type fleetSample struct {
	spec   sweep.Spec
	result []byte
}

// fleetWorkload is fleet-hop: one client submitting sweeps to a
// coordinator whose cluster.Executor forwards every point to one worker
// over loopback.
type fleetWorkload struct {
	seed      uint64
	worker    *simserve.Server
	workerAPI *apiClient
	coord     *simserve.Server
	api       *apiClient
	stops     []func()
	sched     []uint64
	samples   []bool
	window    delta // coordinator
	wWindow   delta // worker

	mu         sync.Mutex
	curTr      *tracer // the traced op in flight, for the dispatch hook
	curRoot    int
	dispatchMS []float64
	rerouted   int
	steps      int
	hashUS     []float64
	kept       []fleetSample
}

func newFleetHop(cfg config) (workload, error) {
	return &fleetWorkload{seed: cfg.seed}, nil
}

func (w *fleetWorkload) clients() int { return 1 }

// setup boots the worker and the coordinator, runs the untimed warm-up
// sweeps, and draws the op schedule.
func (w *fleetWorkload) setup() error {
	w.worker = simserve.New(simserve.Config{DefaultDeadline: opBudget})
	workerBase, stop, err := serve(w.worker)
	if err != nil {
		return err
	}
	w.stops = append(w.stops, stop)
	w.workerAPI = newAPIClient(workerBase, 1)

	exec, err := cluster.New(cluster.Config{
		Workers:    []string{strings.TrimPrefix(workerBase, "http://")},
		Lookup:     func(hash string) ([]byte, bool) { return w.coord.Result(hash) },
		Persist:    func(hash string, payload []byte) { w.coord.PutResult(hash, payload) },
		OnDispatch: w.onDispatch,
		OnReroute:  func(string) { w.mu.Lock(); w.rerouted++; w.mu.Unlock() },
	})
	if err != nil {
		return err
	}
	w.coord = simserve.New(simserve.Config{Executor: exec, DefaultDeadline: opBudget})
	coordBase, stop, err := serve(w.coord)
	if err != nil {
		return err
	}
	w.stops = append(w.stops, stop)
	w.api = newAPIClient(coordBase, 1)

	for i := 0; i < fleetWarmOps; i++ {
		if _, err := w.do(1<<62|w.seed<<16|uint64(i), false, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	rng := rand.New(rand.NewPCG(w.seed, 0xF1EE7))
	w.sched = make([]uint64, fleetScheduleSize)
	w.samples = make([]bool, fleetScheduleSize)
	for i := range w.sched {
		w.sched[i] = rng.Uint64() >> 12 // JSON-exact, clear of the warm-up seeds
		w.samples[i] = rng.IntN(fleetSampleEvery) == 0
	}
	w.mu.Lock()
	w.dispatchMS, w.rerouted, w.steps, w.kept = nil, 0, 0, nil
	w.mu.Unlock()
	if w.window.before, err = w.api.scrape(); err != nil {
		return err
	}
	w.wWindow.before, err = w.workerAPI.scrape()
	return err
}

// onDispatch records each point's coordinator-to-worker round trip, and a
// span under the traced op in flight.
func (w *fleetWorkload) onDispatch(worker string, d time.Duration) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dispatchMS = append(w.dispatchMS, ms(d))
	if w.curTr != nil {
		w.curTr.add(w.curRoot, "cluster", "dispatch "+worker, now.Add(-d), now)
	}
}

func (w *fleetWorkload) op(c, i int, tr *tracer) (float64, error) {
	if i >= len(w.sched) {
		return 0, fmt.Errorf("schedule of %d ops exhausted", len(w.sched))
	}
	return w.do(w.sched[i], w.samples[i], tr)
}

// do submits one sweep, polls it to completion, and checks every point's
// content hash against the locally expanded one.
func (w *fleetWorkload) do(seed uint64, sample bool, tr *tracer) (float64, error) {
	sp := fleetSweep(seed)
	body, err := json.Marshal(sp)
	if err != nil {
		return 0, err
	}
	root := tr.begin(noParent, "client", "op fleet-sweep")
	if tr != nil {
		w.mu.Lock()
		w.curTr, w.curRoot = tr, root
		w.mu.Unlock()
	}
	got, err := w.api.sweep(tr, root, body)
	tr.end(root)
	if tr != nil {
		w.mu.Lock()
		w.curTr = nil
		w.mu.Unlock()
		tr.markFixed(root)
	}
	if err != nil {
		return 0, err
	}

	t0 := time.Now()
	points, err := sp.Expand()
	hashUS := float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(points))
	if err != nil {
		return 0, err
	}
	var res struct {
		Points []struct {
			Hash   string `json:"hash"`
			Result struct {
				Reps []struct {
					Steps int `json:"steps"`
				} `json:"reps"`
			} `json:"result"`
		} `json:"points"`
	}
	if err := json.Unmarshal(got, &res); err != nil {
		return 0, fmt.Errorf("%w: %v", errWrongPayload, err)
	}
	if len(res.Points) != len(points) {
		return 0, fmt.Errorf("%w: %d points returned, %d expanded", errWrongPayload, len(res.Points), len(points))
	}
	var agentSteps float64
	steps := 0
	for i, p := range res.Points {
		if p.Hash != points[i].Hash {
			return 0, fmt.Errorf("%w: point %d answered hash %s, expands to %s", errWrongPayload, i, p.Hash, points[i].Hash)
		}
		for _, r := range p.Result.Reps {
			steps += r.Steps
			agentSteps += float64(r.Steps) * float64(points[i].Spec.Agents)
		}
	}
	w.mu.Lock()
	w.steps += steps
	if tr != nil {
		w.hashUS = append(w.hashUS, hashUS)
	}
	if sample {
		w.kept = append(w.kept, fleetSample{spec: sp, result: got})
	}
	w.mu.Unlock()
	return agentSteps, nil
}

// verify closes both servers' windows and compares the sampled sweep
// payloads with library runs byte for byte.
func (w *fleetWorkload) verify() error {
	var err error
	if w.window.after, err = w.api.scrape(); err != nil {
		return err
	}
	if w.wWindow.after, err = w.workerAPI.scrape(); err != nil {
		return err
	}
	for _, s := range w.kept {
		res, err := sweep.Run(s.spec, sweep.Options{})
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.result, want) {
			return fmt.Errorf("%w: sweep at seed %d diverges from the library run", errWrongPayload, s.spec.Base.Seed)
		}
	}
	fmt.Printf("fleet-hop: %d sampled sweeps match library runs\n", len(w.kept))
	return nil
}

func (w *fleetWorkload) layers() map[string]float64 {
	d, wd := w.window, w.wWindow
	const stage = "mobiserved_stage_seconds"
	workerStage := func(name string) float64 { return wd.meanSeconds(stage, `{stage="`+name+`"}`) }
	out := serverPhases(wd, float64(w.steps))
	out["scenario.canonical_hash_us"] = median(w.hashUS)
	out["scenario.runrep_ms"] = workerStage("execute") * 1e3
	out["sweep.expand_ms"] = d.meanSeconds(stage, `{stage="sweep_expand"}`) * 1e3
	out["simserve.http_run_us"] = wd.meanSeconds("mobiserved_http_request_seconds", `{route="run"}`) * 1e6
	out["simserve.admission_us"] = workerStage("admission") * 1e6
	out["simserve.queue_wait_ms"] = workerStage("queue_wait") * 1e3
	out["simserve.execute_ms"] = workerStage("execute") * 1e3
	out["simserve.assemble_us"] = workerStage("assemble") * 1e6
	out["simserve.cache_write_us"] = workerStage("cache_write") * 1e6
	out["simserve.shed"] = shed(d) + shed(wd)
	if ops := d.count("mobiserved_http_request_seconds", `{route="sweep_submit"}`); ops > 0 {
		out["simserve.polls_per_request"] = d.count("mobiserved_http_request_seconds", `{route="sweeps"}`) / ops
	}
	out["cluster.rerouted"] = float64(w.rerouted)
	if n := len(w.dispatchMS); n > 0 {
		dispatch := mean(w.dispatchMS)
		out["cluster.dispatch_ms"] = dispatch
		out["cluster.hop_ms"] = dispatch - workerStage("execute")*1e3
		out["cluster.worker_polls_per_point"] = wd.count("mobiserved_http_request_seconds", `{route="jobs"}`) / float64(n)
	}
	return out
}

func (w *fleetWorkload) close() {
	for _, c := range []*apiClient{w.api, w.workerAPI} {
		if c != nil {
			c.close()
		}
	}
	// Coordinator first: it stops dispatching before its worker goes away.
	for i := len(w.stops) - 1; i >= 0; i-- {
		w.stops[i]()
	}
}
