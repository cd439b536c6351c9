package mobilenet

// One benchmark per experiment in the validation suite: every "table and
// figure" of the reproduction (E1-E17, see DESIGN.md §5) has a bench target
// that regenerates it at reduced scale. Full-scale numbers come from
// cmd/paperrepro; these benches exist so `go test -bench=.` exercises every
// experiment pipeline end to end and tracks its cost over time.
//
// Scale 0.15 keeps each iteration in the tens-to-hundreds of milliseconds.
// Verdicts at this scale are logged, not asserted: tiny grids add noise
// that full-scale runs do not have.

import (
	"context"
	"testing"

	"mobilenet/internal/agent"
	"mobilenet/internal/experiments"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/rng"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/trace"
)

const (
	benchScale = 0.15
	benchReps  = 2
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(experiments.Params{
			Scale: benchScale,
			Reps:  benchReps,
			Seed:  uint64(i) + 1,
		})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			b.Logf("%s verdict at bench scale: %s", id, res.Verdict)
		}
	}
}

// BenchmarkE01BroadcastVsK regenerates E1: T_B vs k at fixed n (Theorems 1-2).
func BenchmarkE01BroadcastVsK(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE02BroadcastVsN regenerates E2: T_B vs n at fixed k (Theorems 1-2).
func BenchmarkE02BroadcastVsN(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE03RadiusSweep regenerates E3: radius-independence below r_c (headline).
func BenchmarkE03RadiusSweep(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE04Percolation regenerates E4: the percolation transition of G_0(r).
func BenchmarkE04Percolation(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE05Islands regenerates E5: Lemma 6 island-size caps.
func BenchmarkE05Islands(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE06Meeting regenerates E6: Lemma 3 meeting probabilities.
func BenchmarkE06Meeting(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE07Hitting regenerates E7: Lemma 1 hitting probabilities.
func BenchmarkE07Hitting(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE08WalkRange regenerates E8: Lemma 2 range and displacement.
func BenchmarkE08WalkRange(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE09Gossip regenerates E9: Corollary 2 gossip-vs-broadcast.
func BenchmarkE09Gossip(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Frog regenerates E10: §4 Frog-model scaling.
func BenchmarkE10Frog(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Coverage regenerates E11: §4 coverage-vs-broadcast.
func BenchmarkE11Coverage(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12CoverTime regenerates E12: §4 multi-walk cover time.
func BenchmarkE12CoverTime(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13PredatorPrey regenerates E13: §4 predator-prey extinction.
func BenchmarkE13PredatorPrey(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14WangRefutation regenerates E14: the Wang et al. [28] refutation.
func BenchmarkE14WangRefutation(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Frontier regenerates E15: Lemma 7 frontier-speed scaling.
func BenchmarkE15Frontier(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Stationarity regenerates E16: §2 stationarity of the walk.
func BenchmarkE16Stationarity(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17FarAgent regenerates E17: Theorem 2's far-agent premise.
func BenchmarkE17FarAgent(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkX01Barriers regenerates X1: mobility-barrier domains (§4 future work).
func BenchmarkX01Barriers(b *testing.B) { benchExperiment(b, "X1") }

// BenchmarkX02CellReach regenerates X2: Theorem 1's cell-by-cell exploration.
func BenchmarkX02CellReach(b *testing.B) { benchExperiment(b, "X2") }

// BenchmarkX03LazinessAblation regenerates X3: the parity-deadlock ablation.
func BenchmarkX03LazinessAblation(b *testing.B) { benchExperiment(b, "X3") }

// BenchmarkX04Supercritical regenerates X4: the Peres et al. regime contrast.
func BenchmarkX04Supercritical(b *testing.B) { benchExperiment(b, "X4") }

// BenchmarkX05PartialGossip regenerates X5: gossip time vs rumor count.
func BenchmarkX05PartialGossip(b *testing.B) { benchExperiment(b, "X5") }

// BenchmarkX06PercolationThreshold regenerates X6: the empirical r_c scaling.
func BenchmarkX06PercolationThreshold(b *testing.B) { benchExperiment(b, "X6") }

// BenchmarkX07BoundaryAblation regenerates X7: bounded grid vs torus.
func BenchmarkX07BoundaryAblation(b *testing.B) { benchExperiment(b, "X7") }

// BenchmarkX08SynchronyAblation regenerates X8: lockstep vs random
// sequential updates.
func BenchmarkX08SynchronyAblation(b *testing.B) { benchExperiment(b, "X8") }

// BenchmarkMobilityModels measures the raw cost of one synchronized
// population step under each mobility model at fixed n and k — the
// motion-layer baseline for future perf work (sharded populations, batched
// stepping). Dissemination bookkeeping is deliberately excluded: this is
// the price of motion alone.
func BenchmarkMobilityModels(b *testing.B) {
	const side, k = 128, 256
	g := grid.MustNew(side)
	models := []mobility.Model{
		mobility.LazyWalk{},
		mobility.RandomWaypoint{Pause: 2},
		mobility.LevyFlight{},
		mobility.Ballistic{},
	}
	// The trace model replays a short recorded lazy run, looping.
	{
		pop, err := agent.New(g, k, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		rec, err := trace.NewRecorder(side, pop.Positions())
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 512; s++ {
			pop.Step()
			if err := rec.Record(pop.Positions()); err != nil {
				b.Fatal(err)
			}
		}
		models = append(models, mobility.TraceReplay{Trace: rec.Trace(), Loop: true})
	}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			pop, err := agent.NewWithModel(g, k, rng.New(1), m)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop.Step()
			}
		})
	}
}

// BenchmarkScenarioThroughput measures scenarios/sec through the service
// worker pool at GOMAXPROCS workers (the daemon's default sizing): "cold"
// submits distinct scenarios that all have to run, "cached" replays one
// scenario so every submission is answered from the LRU cache. The cold/
// cached gap is the value of content-hash caching. CI's bench-smoke job
// runs it once per commit; perfbench is the benchmark that measures
// performance.
func BenchmarkScenarioThroughput(b *testing.B) {
	spec := func(seed uint64) scenario.Spec {
		return scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16, Seed: seed}
	}
	b.Run("cold", func(b *testing.B) {
		s := simserve.New(simserve.Config{
			QueueDepth: b.N + 1, MaxJobs: b.N + 1, CacheEntries: b.N + 1,
		})
		defer s.Shutdown(context.Background())
		ids := make([]string, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ticket, err := s.Submit(spec(uint64(i) + 1))
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, ticket.JobID)
		}
		for _, id := range ids {
			if _, err := s.Wait(context.Background(), id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := simserve.New(simserve.Config{})
		defer s.Shutdown(context.Background())
		ticket, err := s.Submit(spec(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), ticket.JobID); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ticket, err := s.Submit(spec(1))
			if err != nil {
				b.Fatal(err)
			}
			if !ticket.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

// BenchmarkBroadcastThroughput measures raw simulation speed through the
// public API: one full broadcast on a 64x64 grid with 32 agents.
func BenchmarkBroadcastThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := New(64*64, 32, WithSeed(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Broadcast()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("broadcast incomplete")
		}
	}
}

// BenchmarkGossipThroughput measures a full gossip run through the public
// API at the same scale.
func BenchmarkGossipThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := New(48*48, 24, WithSeed(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Gossip()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("gossip incomplete")
		}
	}
}
