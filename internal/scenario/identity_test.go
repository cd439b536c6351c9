package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mobilenet/internal/obs"
)

// identityCase is one pinned scenario: the SHA-256 digests of its result
// JSON and of its aggregated series NDJSON (the digest of empty input when
// the scenario observes nothing).
type identityCase struct {
	name   string
	spec   Spec
	result string
	series string
}

// observeAll requests every listed observable at cadence 3 with a point
// cap small enough that the runs below compact their series.
func observeAll(names ...string) *obs.Spec {
	return &obs.Spec{Observables: names, Every: 3, MaxPoints: 6}
}

var identityCases = []identityCase{
	{name: "broadcast/complete",
		spec:   Spec{Engine: EngineBroadcast, Nodes: 1024, Agents: 16, Radius: 1, Seed: 3, Reps: 2},
		result: "daef45b3996477de0545ecf89d0d0af46283b5325c8e275a49faa459bd617787",
		series: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{name: "broadcast/capped",
		spec: Spec{Engine: EngineBroadcast, Nodes: 4096, Agents: 8, Seed: 3, MaxSteps: 40,
			Observe: observeAll(obs.Informed, obs.Coverage)},
		result: "4acd41e594df0a7653a3543544d06fe2905695e0a614a35b58b2ef56a33d0edf",
		series: "16fcbbdf74dcea424afba9d60ea8c2df407b22a0ce69f3f58b697141223897ab"},
	{name: "broadcast/observed",
		spec: Spec{Engine: EngineBroadcast, Nodes: 1024, Agents: 16, Radius: 1, Seed: 5, Reps: 2,
			Observe: observeAll(obs.Informed, obs.Components, obs.Largest, obs.Coverage)},
		result: "86e4654ed20684b077785f6fc0d14993a00a5c4f5d62a973fcb1b9801e47655d",
		series: "2acf4b0f6c2751563cce9d5cc0c2fc22d89acad726c558d49d15525bfcd715be"},
	{name: "broadcast/curve-coverage",
		spec: Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 7, Reps: 2,
			Metrics: []string{MetricCurve, MetricCoverage},
			Observe: observeAll(obs.Informed, obs.Components, obs.Largest, obs.Coverage)},
		result: "7056b38244031f68a277fdb2f4ad0ed286eb92df2f14a9f6b69738325c8a3a83",
		series: "4800a38d27dff757df6e67daae714ecc40619d0e742c419b654716b34677d4ae"},
	{name: "broadcast/levy-coverage",
		spec: Spec{Engine: EngineBroadcast, Nodes: 400, Agents: 12, Radius: 1, Seed: 9, Source: SourceRandom,
			Mobility: "levy", Metrics: []string{MetricCoverage},
			Observe: observeAll(obs.Informed, obs.Coverage)},
		result: "73d335443b5abf88eafcbc8c2b6e9bd68113beb2046eadc29662e9431d7cefb8",
		series: "6236031114cdc63fbb30ac09b9de3c26c09bba6543a05c969b598d1a8858855d"},
	{name: "gossip/complete",
		spec:   Spec{Engine: EngineGossip, Nodes: 256, Agents: 8, Radius: 1, Seed: 3, Reps: 2},
		result: "36a6244a54ff8ea6792de9e88707f84b2ac4242aed0d3cee694e6bf6e8e99b5f",
		series: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{name: "gossip/capped",
		spec: Spec{Engine: EngineGossip, Nodes: 4096, Agents: 8, Seed: 3, MaxSteps: 40,
			Observe: observeAll(obs.Informed, obs.Components, obs.Largest)},
		result: "f92fdc7441f10d37e2da2057f2c698907c5a23f6c6700f5862c4f6b2dc45ab39",
		series: "4a6cf5219eba1f1c83edc1af15e9de2ee46977d1bb615e78ba61cb52db83a6cd"},
	{name: "gossip/observed-partial",
		spec: Spec{Engine: EngineGossip, Nodes: 256, Agents: 8, Radius: 1, Seed: 5, Reps: 2, Rumors: 3,
			Observe: observeAll(obs.Informed, obs.Components, obs.Largest)},
		result: "a27c94034dfa83f6d260b5a816f88d5d12581ae08ecd3570d8d8fc97926650bb",
		series: "4604c6a3b55169ed48ccc541842a9ecbabeea1cf99244bf1028853583e9e88af"},
	{name: "frog/complete",
		spec:   Spec{Engine: EngineFrog, Nodes: 256, Agents: 8, Radius: 1, Seed: 3, Reps: 2},
		result: "a77d04ed9b2a869db2d72cd3d91a89d2652b7408dd3ecd225fb7416634154af6",
		series: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{name: "frog/capped",
		spec: Spec{Engine: EngineFrog, Nodes: 4096, Agents: 8, Seed: 3, MaxSteps: 40,
			Observe: observeAll(obs.Informed, obs.Components, obs.Largest)},
		result: "9eeb523207bc9024ac7b1ed8b8c480a68932bf21da1bf7b9ce520de333e276bc",
		series: "35b180128a719daa69da6a6a9e591128bd6ab774cf53705d76b472f37c4b84b1"},
	{name: "frog/observed",
		spec: Spec{Engine: EngineFrog, Nodes: 256, Agents: 8, Radius: 1, Seed: 5, Reps: 2, Source: SourceRandom,
			Observe: observeAll(obs.Informed, obs.Components, obs.Largest)},
		result: "916f4fc92ec4d018af0a303e54db51d23a262a95f1fd588fc336e55c12769685",
		series: "0c935de507dcc32c9ed74101e7a3acc305fe4ff05883b4c51e67acdfbfc0fcd6"},
	{name: "coverage/complete",
		spec:   Spec{Engine: EngineCoverage, Nodes: 256, Agents: 8, Seed: 3, Reps: 2, Metrics: []string{MetricCurve}},
		result: "470f606e4e6e218cec03016d5183716667d158d4abc2e7e9f06a56ef3a573a14",
		series: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{name: "coverage/capped",
		spec: Spec{Engine: EngineCoverage, Nodes: 4096, Agents: 8, Seed: 3, MaxSteps: 40,
			Observe: observeAll(obs.Informed, obs.Coverage)},
		result: "d36d5a3220b821b5095a791f9afc809e301727cbdff242a1e6c2a2149a8fee60",
		series: "5243fbf1bdb4c6d8a7be0f1574cdc8f0c6ff61542d865638c099ae3c86637056"},
	{name: "coverage/observed-levy",
		spec: Spec{Engine: EngineCoverage, Nodes: 256, Agents: 8, Seed: 5, Reps: 2, Mobility: "levy",
			Observe: observeAll(obs.Informed, obs.Coverage)},
		result: "bef6515549e90ce419d798abdff7c52a53157d3a01373a5093df4538943c2cab",
		series: "f26e23c4d19c99102ee08ac01667ce8a580c197f5b02ec316ade87367284f05f"},
	{name: "predator/complete",
		spec:   Spec{Engine: EnginePredator, Nodes: 256, Agents: 8, Radius: 1, Seed: 3, Reps: 2},
		result: "b77d8c3bc7f97d233031e54394cf04184e1225e17b1f53801dd475419aa000ca",
		series: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{name: "predator/capped",
		spec: Spec{Engine: EnginePredator, Nodes: 4096, Agents: 8, Seed: 3, MaxSteps: 40,
			Observe: observeAll(obs.Informed)},
		result: "28f906a3c0618ba5215c34f8b5a41d25902ca6b9496a32ae81b48c57c1f0bcb3",
		series: "06b5645bf029e92b568fd6bccbb4287615d5a47046f6d5ace566e426ad840f31"},
	{name: "predator/observed-waypoint",
		spec: Spec{Engine: EnginePredator, Nodes: 256, Agents: 8, Radius: 1, Seed: 5, Reps: 2, Preys: 5,
			Mobility: "waypoint", Observe: observeAll(obs.Informed)},
		result: "4b1e42e46d468ccc30eddedd344da562dae74918a549385e5e89f326c736c143",
		series: "0e11e06e4a4bd3fc8ab33421f7c9c3519a56e1ce628dd45e7b65719969648ca7"},
	{name: "meeting/met",
		spec: Spec{Engine: EngineMeeting, Nodes: 256, Agents: 2, Radius: 4, Seed: 26,
			Observe: &obs.Spec{Observables: []string{obs.Meeting}, Every: 3}},
		result: "25b5a9466ab30ec839971be033e7a288e0ed25a21460a4a7aedf2fd4d77cd341",
		series: "3b803e5d2373c877c6a8708ce1a50678d249849bc66eec9e55058e74c3076dff"},
	{name: "meeting/unmet",
		spec: Spec{Engine: EngineMeeting, Nodes: 256, Agents: 2, Radius: 4, Seed: 2,
			Observe: &obs.Spec{Observables: []string{obs.Meeting}, Every: 3}},
		result: "9170260ece60b62e0fb190bffc5b33e6713d4af38a897aefcb619757190ac44e",
		series: "6cb64938b0ca6db2009f58b5bee2ce0d62a2cbd6301938a88f79a2b4d0fe32f5"},
	{name: "meeting/observed-reps",
		spec: Spec{Engine: EngineMeeting, Nodes: 256, Agents: 2, Radius: 4, Seed: 26, Reps: 6,
			Observe: &obs.Spec{Observables: []string{obs.Meeting}, Every: 3, MaxPoints: 4}},
		result: "fd6fb9fd42ba7d76cbdd64ff8fae168374faf0e9525e77872cef95f0721cfdf4",
		series: "e44c369bebd6d2d32323ccd73c0439c8b8a342555c1d5e43d9cef2ef606d31d4"},
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEngineByteIdentity pins the exact bytes every engine produces through
// scenario.Run — the result JSON and the series NDJSON — over completed
// runs, runs capped by max_steps, every observable each engine accepts at a
// coarse cadence with point-cap compaction, broadcast's coverage
// continuation, and meeting trials that do and do not meet. Any change to
// stepping, observation cadence, caps or result mapping shows up here.
func TestEngineByteIdentity(t *testing.T) {
	t.Parallel()
	for _, tc := range identityCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var series bytes.Buffer
			if err := obs.WriteNDJSON(&series, res.Series); err != nil {
				t.Fatal(err)
			}
			if got := digest(payload); got != tc.result {
				t.Errorf("result digest %s, want %s\n%s", got, tc.result, payload)
			}
			if got := digest(series.Bytes()); got != tc.series {
				t.Errorf("series digest %s, want %s\n%s", got, tc.series, series.Bytes())
			}
		})
	}
}
