package scenario

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkServiceScaleReplicate times Runner.RunRep on the replicates the
// gated service workloads run: fleet-hop's two points (n = 256, k = 8 and
// 16, r = 0) and service-mix's cold spec (n = 1024, k = 16, r = 1). Each
// runs as simserve runs it — canonical spec, sequential labelling, a
// cancellable context — once profiled, as the service always is, and once
// unprofiled, so the difference is the profiler's share of a replicate.
// Seeds cycle through a fixed set, one replicate per op; ns/step divides
// the elapsed time by the steps the replicates took.
func BenchmarkServiceScaleReplicate(b *testing.B) {
	const seeds = 8
	for _, sc := range []struct {
		name string
		spec Spec
	}{
		{"fleet-k8", Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Reps: 1}},
		{"fleet-k16", Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 16, Reps: 1}},
		{"mix-cold-k16", Spec{Engine: EngineBroadcast, Nodes: 1024, Agents: 16, Radius: 1, Reps: 1}},
	} {
		for _, profiled := range []bool{true, false} {
			b.Run(fmt.Sprintf("spec=%s/profile=%v", sc.name, profiled), func(b *testing.B) {
				c, err := sc.spec.Canonical()
				if err != nil {
					b.Fatal(err)
				}
				c.Parallelism = 1
				c.Profile = profiled
				r, _ := Lookup(c.Engine)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				steps := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := r.RunRep(ctx, c, uint64(1+i%seeds))
					if err != nil {
						b.Fatal(err)
					}
					steps += rep.Steps
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			})
		}
	}
}
