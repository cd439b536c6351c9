package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/store"
	"mobilenet/internal/sweep"
)

// service-mix request classes.
const (
	classHot    = iota // resubmission of a hot spec: an LRU hit or a disk read-through
	classCold          // unique-seed scenario: a full simulation, written behind to disk
	classSweep         // small sweep whose points are all hot
	classSeries        // NDJSON series fetch of an observed hot spec
	numClasses
)

var classNames = [numClasses]string{"hot", "cold", "sweep", "series"}

// mixShape sizes service-mix.
type mixShape struct {
	hot, observed, lru int             // hot specs, how many of them observe, LRU entries
	sweeps, perSweep   int             // fixed sweeps over hot seeds, points per sweep
	schedule           int             // ops drawn per client before the window
	weights            [numClasses]int // ops of each class per schedule block
	sampleEvery        int             // about one cold op in sampleEvery is checked against a library run
}

// mixFull is the measured shape. The LRU holds a third of the hot set, so
// most hot requests read through the disk store. The weights put p50
// inside the hot class and p90 inside the sweep class; cold ops stay rare
// enough that write-behind never drops a spill.
var mixFull = mixShape{
	hot: 48, observed: 16, lru: 16, sweeps: 8, perSweep: 3, schedule: 1 << 17,
	weights:     [numClasses]int{classHot: 57, classCold: 3, classSweep: 24, classSeries: 16},
	sampleEvery: 16,
}

var mixSmoke = mixShape{
	hot: 12, observed: 4, lru: 4, sweeps: 3, perSweep: 3, schedule: 1 << 12,
	weights:     mixFull.weights,
	sampleEvery: 4,
}

// mixSpec is the scenario every service-mix request is built on: n = 1024,
// k = 16, r = 1, one replicate — engine work small enough that the service
// path dominates.
func mixSpec(seed uint64, observe bool) scenario.Spec {
	sp := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16, Radius: 1, Seed: seed, Reps: 1}
	if observe {
		sp.Observe = &obs.Spec{Observables: []string{obs.Informed}, Every: 4}
	}
	return sp
}

// hotSpec is one pre-computed spec of the hot set with its expected bytes.
type hotSpec struct {
	spec    scenario.Spec
	body    []byte
	hash    string
	payload []byte // library result encoding
	series  []byte // library NDJSON render; nil unless observed
}

// mixSweep is one fixed sweep over hot seeds with its library result.
type mixSweep struct {
	spec   sweep.Spec
	body   []byte
	result []byte
}

// mixOp is one scheduled request.
type mixOp struct {
	class  uint8
	sample bool   // cold: compare with a library run after the window
	idx    int32  // hot spec, sweep or observed spec index
	seed   uint64 // cold: the unique scenario seed
}

// coldSample is a cold op's payload kept for the post-window library check.
type coldSample struct {
	spec    scenario.Spec
	payload []byte
}

// serviceWorkload is service-mix: two closed-loop HTTP clients against an
// in-process server with a disk store under an undersized LRU.
type serviceWorkload struct {
	shape  mixShape
	seed   uint64
	dir    string
	st     *store.Store
	svc    *simserve.Server
	stop   func()
	api    *apiClient
	hot    []hotSpec
	sweeps []mixSweep
	sched  [][]mixOp
	window delta
	// classLat is each client's completed ops by class; client c's slice
	// is touched only by client c's loop.
	classLat [][]classSample

	mu         sync.Mutex
	coldSteps  int
	uncached   int
	uncPolls   int
	hashUS     []float64
	assembleMS []float64 // sweep.Assemble on served sweep payloads
	samples    []coldSample
	getUS      []float64
	putUS      []float64
}

func newServiceMix(cfg config) (workload, error) {
	shape := mixFull
	if cfg.smoke {
		shape = mixSmoke
	}
	dir, err := os.MkdirTemp(cfg.scratch, "service-mix-")
	if err != nil {
		return nil, err
	}
	return &serviceWorkload{shape: shape, seed: cfg.seed, dir: dir}, nil
}

func (w *serviceWorkload) clients() int { return 2 }

// hotSeed is hot spec j's scenario seed; cold seeds set the top bit, so the
// two never meet.
func (w *serviceWorkload) hotSeed(j int) uint64 { return (w.seed%(1<<32))*1000 + uint64(j) }

// setup boots the server over a fresh store, computes the expected bytes
// with the library, pre-warms the hot set through the API, waits for the
// write-behind spill to reach disk, runs one untimed op of each class, and
// draws both clients' schedules.
func (w *serviceWorkload) setup() error {
	st, err := store.Open(w.dir, 1<<30)
	if err != nil {
		return err
	}
	w.st = st
	w.svc = simserve.New(simserve.Config{CacheEntries: w.shape.lru, Store: st, DefaultDeadline: opBudget})
	base, stop, err := serve(w.svc)
	if err != nil {
		return err
	}
	w.stop = stop
	w.api = newAPIClient(base, w.clients())

	for j := 0; j < w.shape.hot; j++ {
		h, err := libraryHot(mixSpec(w.hotSeed(j), j < w.shape.observed))
		if err != nil {
			return err
		}
		w.hot = append(w.hot, h)
	}
	plain := w.shape.hot - w.shape.observed
	for k := 0; k < w.shape.sweeps; k++ {
		seeds := make([]any, w.shape.perSweep)
		for m := range seeds {
			seeds[m] = int64(w.hotSeed(w.shape.observed + (k*w.shape.perSweep+m)%plain))
		}
		sp := sweep.Spec{Base: mixSpec(0, false), Axes: []sweep.Axis{{Field: "seed", Values: seeds}}}
		res, err := sweep.Run(sp, sweep.Options{})
		if err != nil {
			return err
		}
		body, err1 := json.Marshal(sp)
		result, err2 := json.Marshal(res)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("encoding sweep %d: %v %v", k, err1, err2)
		}
		w.sweeps = append(w.sweeps, mixSweep{spec: sp, body: body, result: result})
	}

	for j, h := range w.hot {
		got, err := w.api.run(nil, noParent, h.body)
		if err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
		if got.hash != h.hash || !bytes.Equal(got.payload, h.payload) {
			return fmt.Errorf("%w: pre-warm of hot spec %d diverges from the library run", errWrongPayload, j)
		}
	}
	if err := waitFor(func() bool { return st.Len() >= w.shape.hot }, opBudget); err != nil {
		return fmt.Errorf("store flush: %w", err)
	}

	warm := make([]mixOp, numClasses)
	for c := range warm {
		warm[c] = mixOp{class: uint8(c), seed: 1<<63 | w.seed<<20}
	}
	for _, o := range warm {
		if _, err := w.do(o, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", classNames[o.class], err)
		}
	}

	w.coldSteps, w.uncached, w.uncPolls, w.samples = 0, 0, 0, nil
	w.classLat = make([][]classSample, w.clients())
	w.sched = make([][]mixOp, w.clients())
	for c := range w.sched {
		w.sched[c] = w.drawSchedule(c)
	}
	w.window.before, err = w.api.scrape()
	return err
}

// libraryHot runs a hot spec through the library and keeps its bytes.
func libraryHot(sp scenario.Spec) (hotSpec, error) {
	res, err := scenario.Run(sp)
	if err != nil {
		return hotSpec{}, err
	}
	h := hotSpec{spec: sp, hash: res.Hash}
	if h.body, err = json.Marshal(sp); err != nil {
		return h, err
	}
	if h.payload, err = json.Marshal(res); err != nil {
		return h, err
	}
	if sp.Observe != nil {
		var buf bytes.Buffer
		if err := obs.WriteNDJSON(&buf, res.Series); err != nil {
			return h, err
		}
		h.series = buf.Bytes()
	}
	return h, nil
}

// drawSchedule draws client c's ops from the workload seed. Classes come
// in blocks holding exactly the weights' counts, shuffled within the
// block, so every window sees the same mix whatever the seed; hot and
// observed specs and sweeps are drawn uniformly, and every cold op gets a
// fresh seed.
func (w *serviceWorkload) drawSchedule(c int) []mixOp {
	rng := rand.New(rand.NewPCG(w.seed, uint64(c)+1))
	var block []uint8
	for class, n := range w.shape.weights {
		for k := 0; k < n; k++ {
			block = append(block, uint8(class))
		}
	}
	ops := make([]mixOp, w.shape.schedule)
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[i%len(block)]
		o := mixOp{class: class}
		switch class {
		case classHot:
			o.idx = int32(rng.IntN(w.shape.hot))
		case classCold:
			o.seed = 1<<63 | rng.Uint64()
			o.sample = rng.IntN(w.shape.sampleEvery) == 0
		case classSweep:
			o.idx = int32(rng.IntN(w.shape.sweeps))
		case classSeries:
			o.idx = int32(rng.IntN(w.shape.observed))
		}
		ops[i] = o
	}
	return ops
}

func (w *serviceWorkload) op(c, i int, tr *tracer) (float64, error) {
	if i >= len(w.sched[c]) {
		return 0, fmt.Errorf("client %d exhausted its %d-op schedule", c, len(w.sched[c]))
	}
	o := w.sched[c][i]
	t0 := time.Now()
	steps, err := w.do(o, tr)
	if err == nil {
		w.classLat[c] = append(w.classLat[c], classSample{class: o.class, ms: ms(time.Since(t0))})
	}
	return steps, err
}

// classSample is one completed op's latency with its request class.
type classSample struct {
	class uint8
	ms    float64
}

// classBands reports which request classes the ops around p50 and p90
// belong to: the mix is built so that each percentile sits well inside one
// class, and this is the evidence.
func (w *serviceWorkload) classBands() string {
	var all []classSample
	for _, s := range w.classLat {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ms < all[b].ms })
	var b strings.Builder
	for _, q := range []float64{0.50, 0.90} {
		lo, hi := int((q-0.05)*float64(len(all))), int((q+0.05)*float64(len(all)))
		var counts [numClasses]int
		for _, s := range all[lo:hi] {
			counts[s.class]++
		}
		fmt.Fprintf(&b, " p%.0f band [%.0f%%,%.0f%%]:", q*100, (q-0.05)*100, (q+0.05)*100)
		for c, n := range counts {
			if n > 0 {
				fmt.Fprintf(&b, " %s %.1f%%", classNames[c], 100*float64(n)/float64(hi-lo))
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

// do runs one request of the mix and checks what it returned.
func (w *serviceWorkload) do(o mixOp, tr *tracer) (float64, error) {
	root := tr.begin(noParent, "client", "op "+classNames[o.class])
	switch o.class {
	case classHot:
		h := w.hot[o.idx]
		got, err := w.api.run(tr, root, h.body)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if got.hash != h.hash || !bytes.Equal(got.payload, h.payload) {
			return 0, fmt.Errorf("%w: hot spec %d answered hash %s", errWrongPayload, o.idx, got.hash)
		}
		return 0, nil
	case classCold:
		sp := mixSpec(o.seed, false)
		body, err := json.Marshal(sp)
		if err != nil {
			return 0, err
		}
		got, err := w.api.run(tr, root, body)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		return w.checkCold(o, sp, got, tr, root)
	case classSweep:
		s := w.sweeps[o.idx]
		got, err := w.api.sweep(tr, root, s.body)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, s.result) {
			return 0, fmt.Errorf("%w: sweep %d diverges from the library run", errWrongPayload, o.idx)
		}
		if tr != nil {
			return 0, w.timeAssemble(s, got)
		}
		return 0, nil
	default:
		h := w.hot[o.idx]
		got, err := w.api.series(tr, root, h.hash)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, h.series) {
			return 0, fmt.Errorf("%w: series of hot spec %d diverges from the library render", errWrongPayload, o.idx)
		}
		return 0, nil
	}
}

// timeAssemble times the sweep layer's Assemble on the point results of a
// returned sweep payload, which must re-encode to the same bytes.
func (w *serviceWorkload) timeAssemble(s mixSweep, got []byte) error {
	var res sweep.Result
	if err := json.Unmarshal(got, &res); err != nil {
		return fmt.Errorf("%w: %v", errWrongPayload, err)
	}
	points := make([]sweep.Point, len(res.Points))
	results := make([]*scenario.Result, len(res.Points))
	for i, p := range res.Points {
		points[i], results[i] = p.Point, p.Result
	}
	t0 := time.Now()
	again, err := sweep.Assemble(s.spec, points, results)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if b, err := json.Marshal(again); err != nil || !bytes.Equal(b, got) {
		return fmt.Errorf("%w: re-assembled sweep differs from the served one (%v)", errWrongPayload, err)
	}
	w.mu.Lock()
	w.assembleMS = append(w.assembleMS, ms(d))
	w.mu.Unlock()
	return nil
}

// checkCold checks a cold op's content hash against the local one, keeps
// sampled payloads for the library comparison, and returns its agent-steps.
// The first traced cold op is the run's decomposed op: its server-side job
// trace is adopted under its root span.
func (w *serviceWorkload) checkCold(o mixOp, sp scenario.Spec, got runResult, tr *tracer, root int) (float64, error) {
	t0 := time.Now()
	want, err := sp.Hash()
	hashUS := float64(time.Since(t0)) / float64(time.Microsecond)
	if err != nil {
		return 0, err
	}
	if got.hash != want {
		return 0, fmt.Errorf("%w: cold op answered hash %s, spec hashes to %s", errWrongPayload, got.hash, want)
	}
	var res struct {
		Reps []struct {
			Steps int `json:"steps"`
		} `json:"reps"`
	}
	if err := json.Unmarshal(got.payload, &res); err != nil {
		return 0, fmt.Errorf("%w: %v", errWrongPayload, err)
	}
	steps := 0
	for _, r := range res.Reps {
		steps += r.Steps
	}
	w.mu.Lock()
	w.coldSteps += steps
	if got.jobID != "" {
		w.uncached++
		w.uncPolls += got.polls
	}
	if tr != nil {
		w.hashUS = append(w.hashUS, hashUS)
	}
	if o.sample {
		w.samples = append(w.samples, coldSample{spec: sp, payload: got.payload})
	}
	w.mu.Unlock()
	if tr != nil && got.jobID != "" && root >= 0 {
		w.adoptJob(tr, root, got.jobID)
	}
	return float64(steps) * float64(sp.Agents), nil
}

// adoptJob makes root the decomposed op, once, by adopting its job's
// server-side trace: submission and assembly (simserve), queue wait
// (simserve), and the replicate run (scenario) with its step phases.
func (w *serviceWorkload) adoptJob(tr *tracer, root int, jobID string) {
	tr.mu.Lock()
	chosen := tr.fixed != noParent
	tr.mu.Unlock()
	if chosen {
		return
	}
	jt, ok, err := w.svc.JobTrace(jobID)
	if !ok || err != nil {
		return
	}
	tr.markFixed(root)
	spans := jt.Spans()
	ids := tr.adopt(root, jt, func(s prof.Span) string {
		if s.Cat == "rep" {
			return "scenario"
		}
		return "simserve"
	})
	for i, s := range spans {
		if s.Cat != "rep" {
			continue
		}
		phases := make(map[string]float64)
		for k, v := range s.Args {
			if name, ok := strings.CutPrefix(k, "phase_"); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					phases[strings.TrimSuffix(name, "_ms")] = f / 1e3
				}
			}
		}
		tr.addPhases(ids[i], jt.Epoch().Add(s.Start+s.Dur), phases)
	}
}

// verify closes the window's metrics, compares the sampled cold payloads
// with library runs byte for byte, and times the store layer directly.
func (w *serviceWorkload) verify() error {
	after, err := w.api.scrape()
	if err != nil {
		return err
	}
	w.window.after = after
	for _, s := range w.samples {
		res, err := scenario.Run(s.spec)
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.payload, want) {
			return fmt.Errorf("%w: cold seed %d diverges from the library run", errWrongPayload, s.spec.Seed)
		}
	}
	fmt.Printf("service-mix: %d sampled cold payloads match library runs;%s\n", len(w.samples), w.classBands())
	return w.probeStore()
}

// probeStore times the store's public Get on every hot key of the server's
// store, and Put of the same payloads into a second store beside it, so
// the probe never changes what the server's store holds.
func (w *serviceWorkload) probeStore() error {
	for _, h := range w.hot {
		t0 := time.Now()
		got, ok := w.st.Get(h.hash)
		w.getUS = append(w.getUS, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok || !bytes.Equal(got, h.payload) {
			return fmt.Errorf("%w: store holds no or wrong bytes for hot spec %s", errWrongPayload, h.hash[:12])
		}
	}
	probe, err := store.Open(w.dir+"-probe", 1<<30)
	if err != nil {
		return err
	}
	defer os.RemoveAll(w.dir + "-probe")
	for _, h := range w.hot {
		t0 := time.Now()
		if err := probe.Put(h.hash, h.payload); err != nil {
			return err
		}
		w.putUS = append(w.putUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return nil
}

func (w *serviceWorkload) layers() map[string]float64 {
	d := w.window
	const stage = "mobiserved_stage_seconds"
	stageMean := func(name string) float64 { return d.meanSeconds(stage, `{stage="`+name+`"}`) }
	hits, misses := d.diff("mobiserved_cache_hits_total"), d.diff("mobiserved_cache_misses_total")
	sHits, sMisses := d.diff("mobiserved_store_hits_total"), d.diff("mobiserved_store_misses_total")
	out := serverPhases(d, float64(w.coldSteps))
	out["scenario.canonical_hash_us"] = median(w.hashUS)
	out["scenario.runrep_ms"] = stageMean("execute") * 1e3
	out["sweep.expand_ms"] = stageMean("sweep_expand") * 1e3
	out["sweep.assemble_ms"] = mean(w.assembleMS)
	out["simserve.http_run_us"] = d.meanSeconds("mobiserved_http_request_seconds", `{route="run"}`) * 1e6
	out["simserve.admission_us"] = stageMean("admission") * 1e6
	out["simserve.series_render_us"] = stageMean("series_render") * 1e6
	out["simserve.queue_wait_ms"] = stageMean("queue_wait") * 1e3
	out["simserve.execute_ms"] = stageMean("execute") * 1e3
	out["simserve.assemble_us"] = stageMean("assemble") * 1e6
	out["simserve.cache_write_us"] = stageMean("cache_write") * 1e6
	out["simserve.cache_hit_frac"] = frac(hits, hits+misses)
	out["simserve.shed"] = shed(d)
	out["store.hit_frac"] = frac(sHits, sHits+sMisses)
	out["store.get_us"] = median(w.getUS)
	out["store.put_us"] = median(w.putUS)
	out["store.dropped_writes"] = d.diff("mobiserved_store_dropped_writes_total")
	if w.uncached > 0 {
		out["simserve.polls_per_request"] = float64(w.uncPolls) / float64(w.uncached)
	}
	return out
}

// serverPhases turns a server's engine-phase histograms into per-step
// times over the window's simulated steps.
func serverPhases(d delta, steps float64) map[string]float64 {
	out := make(map[string]float64)
	if steps <= 0 {
		return out
	}
	phase := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += d.diff(`mobiserved_engine_phase_seconds_sum{engine="broadcast",phase="` + n + `"}`)
		}
		return s * 1e3 / steps
	}
	out["mobility.move_ms_per_step"] = phase("move")
	out["visibility.index_ms_per_step"] = phase("index")
	out["visibility.label_ms_per_step"] = phase("label")
	out["core.spread_ms_per_step"] = phase("spread", "observe")
	return out
}

// shed sums a server's shed counters over the window.
func shed(d delta) float64 {
	return d.diff(`mobiserved_shed_total{reason="queue_full"}`) + d.diff(`mobiserved_shed_total{reason="rate_limited"}`)
}

func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func (w *serviceWorkload) close() {
	if w.api != nil {
		w.api.close()
	}
	if w.stop != nil {
		w.stop()
	}
	os.RemoveAll(w.dir)
}

// waitFor polls cond every millisecond until it holds or budget passes.
func waitFor(cond func() bool, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %s", budget)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
