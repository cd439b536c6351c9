package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobilenet/internal/prof"
)

// Span parent sentinels: noParent opens a root (one op); a dropped span's
// id is droppedSpan, and its children are dropped with it.
const (
	noParent    = -1
	droppedSpan = -2
)

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 50_000

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one op share its root span.
type span struct {
	parent      int
	layer, name string
	start, end  time.Time
}

// tracer keeps a traced run's spans in memory. It is safe for concurrent
// use; every method is a no-op on a nil tracer.
type tracer struct {
	mu      sync.Mutex
	epoch   *prof.Trace // created first, so every span starts after its epoch
	spans   []span
	fixed   int // root span of the op the run decomposes; noParent until chosen
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: prof.NewTrace(), fixed: noParent}
}

// begin opens a span now and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return droppedSpan
	}
	return t.add(parent, layer, name, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span with explicit bounds and returns its id.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil || parent == droppedSpan {
		return droppedSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return droppedSpan
	}
	t.spans = append(t.spans, span{parent: parent, layer: layer, name: name, start: start, end: end})
	return len(t.spans) - 1
}

// markFixed chooses root as the op to decompose, unless one was chosen.
func (t *tracer) markFixed(root int) {
	if t == nil || root < 0 {
		return
	}
	t.mu.Lock()
	if t.fixed == noParent {
		t.fixed = root
	}
	t.mu.Unlock()
}

// phaseLayer maps a step phase to the module that owns it.
var phaseLayer = map[string]string{
	"move":    "mobility",
	"index":   "visibility",
	"label":   "visibility",
	"spread":  "core",
	"observe": "core",
}

// addPhases records a replicate's step-phase totals as consecutive child
// spans ending at the replicate's end: the phases tile the step loop, which
// runs after the replicate's set-up.
func (t *tracer) addPhases(parent int, end time.Time, seconds map[string]float64) {
	if t == nil || parent < 0 {
		return
	}
	var total time.Duration
	for _, name := range prof.PhaseNames() {
		total += secs(seconds[name])
	}
	at := end.Add(-total)
	for _, name := range prof.PhaseNames() {
		d := secs(seconds[name])
		if d <= 0 {
			continue
		}
		t.add(parent, phaseLayer[name], name, at, at.Add(d))
		at = at.Add(d)
	}
}

// adopt copies a program trace's spans (a replicate trace from
// scenario.RunWithTrace, a job trace from simserve) under parent, placing
// them on the benchmark's clock through the trace's epoch. layer names the
// module each span belongs to; it returns the new ids in the trace's order.
func (t *tracer) adopt(parent int, pt *prof.Trace, layer func(prof.Span) string) []int {
	if t == nil || pt == nil {
		return nil
	}
	epoch := pt.Epoch()
	var ids []int
	for _, s := range pt.Spans() {
		start := epoch.Add(s.Start)
		ids = append(ids, t.add(parent, layer(s), s.Name, start, start.Add(s.Dur)))
	}
	return ids
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// decompose splits the fixed op's client latency into self times by layer:
// a span's self time is its duration minus the part of it its children
// cover. The root's self time is the latency no layer accounts for; its
// share of the latency is returned as the unattributed fraction, with the
// per-layer breakdown rendered for the report.
func (t *tracer) decompose() (float64, string) {
	if t == nil {
		return 0, " none"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fixed == noParent {
		return 0, " none"
	}
	children := make(map[int][]int)
	for id, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], id)
		}
	}
	byLayer := make(map[string]time.Duration)
	var rootSelf time.Duration
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id]
		var kids [][2]time.Time
		for _, k := range children[id] {
			kids = append(kids, [2]time.Time{t.spans[k].start, t.spans[k].end})
			walk(k)
		}
		self := s.end.Sub(s.start) - covered(s.start, s.end, kids)
		if id == t.fixed {
			rootSelf = self
			return
		}
		byLayer[s.layer] += self
	}
	walk(t.fixed)
	root := t.spans[t.fixed]
	latency := root.end.Sub(root.start)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	fmt.Fprintf(&b, " latency=%.3f", ms(latency))
	for _, l := range layers {
		fmt.Fprintf(&b, " %s=%.3f", l, ms(byLayer[l]))
	}
	fmt.Fprintf(&b, " unattributed=%.3f", ms(rootSelf))
	if latency <= 0 {
		return 0, b.String()
	}
	return float64(rootSelf) / float64(latency), b.String()
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(lo, hi time.Time, iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	cur := lo
	for _, in := range iv {
		s, e := in[0], in[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// export writes every kept span as Chrome trace-event JSON — one row per
// layer, each span annotated with its op's root id — checks the file with
// prof.ValidateChromeTrace, and writes it to path.
func (t *tracer) export(path string) (int, error) {
	t.mu.Lock()
	pt := t.epoch
	rows := make(map[string]int64)
	for id, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		tid, ok := rows[s.layer]
		if !ok {
			tid = int64(len(rows) + 1)
			rows[s.layer] = tid
			pt.NameThread(tid, s.layer)
		}
		root := id
		for t.spans[root].parent >= 0 {
			root = t.spans[root].parent
		}
		pt.Add(s.name, s.layer, tid, s.start, s.end.Sub(s.start), map[string]string{"op": strconv.Itoa(root)})
	}
	dropped := t.dropped
	t.mu.Unlock()

	var buf bytes.Buffer
	if err := pt.WriteChromeTrace(&buf); err != nil {
		return 0, err
	}
	n, err := prof.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return 0, fmt.Errorf("trace failed validation: %w", err)
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: trace kept %d spans, dropped %d past the cap\n", n, dropped)
	}
	return n, os.WriteFile(path, buf.Bytes(), 0o644)
}
