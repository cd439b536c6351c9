package core

import (
	"fmt"

	"mobilenet/internal/agent"
	"mobilenet/internal/bitset"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/step"
	"mobilenet/internal/visibility"
)

// Gossip simulates the multi-rumor problem of the paper's §2: at time 0 a
// set M of distinct rumors is held by distinct agents (the classical gossip
// problem assigns one rumor to every agent, |M| = k), and within each
// component of G_t(r) agents exchange everything they know. The gossip time
// T_G is the first time every agent knows every rumor (paper, Definition 1
// and Corollary 2). Gossip implements step.Engine.
type Gossip struct {
	cfg   Config
	pop   *agent.Population
	lab   *visibility.Incremental
	total int // |M|, number of distinct rumors

	rumors  []*bitset.Set // rumors[i] = M_{a_i}(t)
	haveAll int           // number of agents knowing all rumors
	scratch *bitset.Set   // component-union accumulator
	members [][]int32     // component membership scratch, indexed by label
}

// NewGossip starts the all-to-all problem (one rumor per agent) and
// performs the time-0 exchange.
func NewGossip(cfg Config) (*Gossip, error) {
	return NewPartialGossip(cfg, 0)
}

// NewPartialGossip starts a gossip with the given number of distinct
// rumors, held by agents 0..rumors-1 (the paper's §2 assumes w.l.o.g. at
// most one rumor per agent). rumors = 0 selects the classical |M| = k.
func NewPartialGossip(cfg Config, rumors int) (*Gossip, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rumors < 0 || rumors > cfg.K {
		return nil, fmt.Errorf("core: rumor count %d outside [0,%d]", rumors, cfg.K)
	}
	if rumors == 0 {
		rumors = cfg.K
	}
	src := rng.New(cfg.Seed)
	pop, err := agent.NewWithModel(cfg.Grid, cfg.K, src, cfg.Mobility)
	if err != nil {
		return nil, err
	}
	for i, p := range cfg.Placement {
		pop.SetPosition(i, p)
	}
	g := &Gossip{
		cfg:     cfg,
		pop:     pop,
		lab:     cfg.newLabeller(),
		total:   rumors,
		rumors:  make([]*bitset.Set, cfg.K),
		scratch: bitset.New(rumors),
	}
	for i := range g.rumors {
		g.rumors[i] = bitset.New(rumors)
		if i < rumors {
			g.rumors[i].Add(i)
		}
	}
	for i := range g.rumors {
		if g.rumors[i].Len() == g.total {
			g.haveAll++
		}
	}
	cfg.Profile.Mark()
	g.exchange()
	return g, nil
}

// exchange merges rumor sets within every current component.
func (g *Gossip) exchange() {
	k := g.pop.K()
	labels, count := g.lab.Components(g.pop.Positions(), g.cfg.Radius)

	// Group members by component label, reusing the scratch slices.
	if cap(g.members) < count {
		g.members = make([][]int32, count)
	}
	g.members = g.members[:count]
	for i := range g.members {
		g.members[i] = g.members[i][:0]
	}
	for i := 0; i < k; i++ {
		g.members[labels[i]] = append(g.members[labels[i]], int32(i))
	}

	for _, m := range g.members {
		if len(m) < 2 {
			continue
		}
		// Skip components where every member already knows everything:
		// nothing can change.
		complete := true
		for _, ai := range m {
			if g.rumors[ai].Len() != g.total {
				complete = false
				break
			}
		}
		if complete {
			continue
		}
		// Union all member sets, then install the union into each member.
		g.scratch.Clear()
		for _, ai := range m {
			g.scratch.UnionWith(g.rumors[ai])
		}
		full := g.scratch.Len() == g.total
		for _, ai := range m {
			if g.rumors[ai].Len() == g.scratch.Len() {
				continue // already equal: sets only grow, equal size => equal
			}
			wasFull := g.rumors[ai].Len() == g.total
			g.rumors[ai].CopyFrom(g.scratch)
			if full && !wasFull {
				g.haveAll++
			}
		}
	}
	g.cfg.Profile.Lap(prof.Spread)
}

// Step advances the system one time unit.
func (g *Gossip) Step() {
	g.pop.Step()
	g.cfg.Profile.Lap(prof.Move)
	g.exchange()
}

// Sample returns the current step's observables: the agents knowing every
// rumor as "informed" and the component census of the last exchange (the
// largest component only when rec requests it).
func (g *Gossip) Sample(rec *obs.Recorder) obs.Sample {
	s := obs.Sample{Informed: g.haveAll, Components: len(g.members)}
	if rec.NeedsComponents() {
		for _, m := range g.members {
			if len(m) > s.Largest {
				s.Largest = len(m)
			}
		}
	}
	return s
}

// Done reports whether every agent knows every rumor.
func (g *Gossip) Done() bool { return g.haveAll == g.pop.K() }

// Time returns the current simulation time.
func (g *Gossip) Time() int { return g.pop.Time() }

// TotalRumors returns |M|, the number of distinct rumors in the system.
func (g *Gossip) TotalRumors() int { return g.total }

// RumorCount returns how many rumors agent i currently knows.
func (g *Gossip) RumorCount(i int) int { return g.rumors[i].Len() }

// Knows reports whether agent i knows rumor j.
func (g *Gossip) Knows(i, j int) bool { return g.rumors[i].Contains(j) }

// GossipResult summarises a gossip run.
type GossipResult struct {
	// Steps is the gossip time T_G. Valid only when Completed.
	Steps int
	// Completed is false when the run hit MaxSteps first.
	Completed bool
}

// Result reports the run as it stands.
func (g *Gossip) Result() GossipResult {
	return GossipResult{Steps: g.pop.Time(), Completed: g.Done()}
}

// Run drives the gossip to completion (or the step cap) through the step
// driver.
func (g *Gossip) Run() GossipResult {
	step.Run(g, step.Hooks{Cap: g.cfg.StepCap(), Profile: g.cfg.Profile})
	return g.Result()
}

// RunGossip is the one-shot convenience wrapper for the classical
// all-to-all problem.
func RunGossip(cfg Config) (GossipResult, error) {
	g, err := NewGossip(cfg)
	if err != nil {
		return GossipResult{}, err
	}
	return g.Run(), nil
}

// RunPartialGossip is the one-shot wrapper for |M| = rumors distinct
// rumors (0 selects |M| = k).
func RunPartialGossip(cfg Config, rumors int) (GossipResult, error) {
	g, err := NewPartialGossip(cfg, rumors)
	if err != nil {
		return GossipResult{}, err
	}
	return g.Run(), nil
}
