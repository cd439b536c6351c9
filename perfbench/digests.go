package main

// pinnedBroadcast pins the broadcast-k1e5 payload digest (SHA-256 of the
// result's JSON encoding) by workload seed. Other seeds are checked for
// op-to-op byte identity against their own warm-up op.
var pinnedBroadcast = map[uint64]string{
	defaultSeed: "5c50ff2c1b34dbad2216d7a505da6145b3d4179cbc84e149a0ad3791be1aeafa",
}

// vettedSeed is one radius-sweep base seed and its pinned payload digest.
type vettedSeed struct {
	base   uint64
	digest string
}

// vettedSweepSeeds are the radius-sweep base seeds; workload seed s runs
// entry s mod len. Run to completion, a sweep's simulated steps depend on
// its seed: over base seeds 1..200 they have a median of 16 798 and a
// coefficient of variation of 12%, wider than the bound a latency may move
// by. Every entry here is within 1.5% of that median in total steps and in
// the two-worker makespan (steps on the busier worker when the points are
// dealt in order to the first free one), so every workload seed asks for
// the same work and a run-to-run spread measures the program and the host,
// not the draw. The comments give total steps.
var vettedSweepSeeds = []vettedSeed{
	{89, "2361b735953ea3748a9c7191ef9c099251a2d5da4764310dcb4f13c7605bb339"},  // 16869 steps
	{182, "f30623123d77563ec570e7057199d7baa7cee93016adf3f3e371b5f186ab93b4"}, // 16737 steps
	{186, "5000ad345ea1c8a4d270a13f1d5ba2b63291ae7a4c7d3295e5189210301086e1"}, // 16828 steps
	{152, "0625d1ddef170df78923be2248b247389d5ad50ae8a78abedbf490df284e82fe"}, // 16940 steps
	{65, "9f9e60414088f6b4d5304a796b6e72bbce33845e0a6cc756306dc61c17713f69"},  // 16930 steps
	{156, "77e911b14807ebd3f544c606207ffb52f722a89f4b15107f99c435fc95d133fe"}, // 16934 steps
	{169, "027dbd5d70ce246975a282e7d06a9a111649dd08da0389098d9145ed6e0386a4"}, // 16552 steps
	{68, "1c8f3a87dab2fd6c763d1ab55bf2931a554c3cd94c6d02d3d091e507521fea71"},  // 16614 steps
	{79, "959b9b83c3c113ee6f396445f0cfcdf2ccef17e86adbde221670a8707be6e71b"},  // 16588 steps
	{179, "462bc62c59d783e0702bdecccba581b93b3dd9b9bcaf5d7f5abe867774731e58"}, // 16581 steps
}
