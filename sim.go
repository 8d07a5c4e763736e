package rotorring

import (
	"context"
	"errors"
	"fmt"

	"rotorring/internal/core"
	"rotorring/internal/engine"
	"rotorring/internal/ringdom"
	"rotorring/internal/xrand"
)

// PlacementPolicy selects the initial agent positions.
type PlacementPolicy = engine.Placement

// Placement policies. The paper's Table 1 distinguishes the worst-case
// placement (all agents on one node, Theorem 1) from the best case (equal
// spacing, Theorem 3).
const (
	// PlaceSingleNode puts all k agents on node 0 (worst case).
	PlaceSingleNode = engine.PlaceSingle
	// PlaceEqualSpacing spreads the agents at positions floor(i·n/k)
	// (best case).
	PlaceEqualSpacing = engine.PlaceEqual
	// PlaceRandom samples k independent uniform positions from the seed.
	PlaceRandom = engine.PlaceRandom
)

// PointerPolicy selects the initial port pointers — the part of the
// configuration the paper's adversary controls.
type PointerPolicy = engine.Pointer

// Pointer policies.
const (
	// PointerZero leaves every pointer at port 0 (all clockwise on the
	// ring).
	PointerZero = engine.PtrZero
	// PointerNegative points every node toward its nearest starting
	// agent, so the first visit to each new node reflects the visitor
	// back — the paper's "negatively initialized" adversarial barrier
	// (§2.2, Theorem 4).
	PointerNegative = engine.PtrNegative
	// PointerTowardStart points every node toward node 0 along shortest
	// paths: combined with PlaceSingleNode this is the Θ(n²/log k) worst
	// case of Theorem 1.
	PointerTowardStart = engine.PtrToward
	// PointerRandom samples uniform pointers from the seed.
	PointerRandom = engine.PtrRandom
)

// KernelPolicy selects the stepping tier of a simulation (see
// internal/kernel): the specialized ring/path rotor kernels and the
// counts-based walk engine are several times faster in the paper's dense
// regimes and produce identical results (bit-identical for the rotor,
// statistically identical for walks).
type KernelPolicy = engine.Kernel

// Kernel policies.
const (
	// KernelAuto picks the fastest equivalent engine per topology and
	// density. This is the default.
	KernelAuto = engine.KernelAuto
	// KernelGeneric forces the generic rotor engine / per-agent walks.
	KernelGeneric = engine.KernelGeneric
	// KernelFast forces the specialized rotor kernel (where the topology
	// has one) / counts-based walks.
	KernelFast = engine.KernelFast
)

// SimOption configures a simulation built by New.
type SimOption func(*simConfig) error

type simConfig struct {
	k         int
	placement PlacementPolicy
	positions []int
	pointers  PointerPolicy
	customPtr []int
	seed      uint64
	tracking  bool
	kernel    KernelPolicy
}

// Agents sets the number of agents k (used with a placement policy).
func Agents(k int) SimOption {
	return func(c *simConfig) error {
		if k < 1 {
			return fmt.Errorf("rotorring: need at least one agent, got %d", k)
		}
		c.k = k
		return nil
	}
}

// Place selects a placement policy for the agents.
func Place(p PlacementPolicy) SimOption {
	return func(c *simConfig) error {
		c.placement = p
		return nil
	}
}

// Positions places agents explicitly (repeats allowed); it overrides
// Agents and Place.
func Positions(pos ...int) SimOption {
	return func(c *simConfig) error {
		if len(pos) == 0 {
			return errors.New("rotorring: empty position list")
		}
		c.positions = append([]int(nil), pos...)
		return nil
	}
}

// Pointers selects the initial pointer policy (rotor-router only).
func Pointers(p PointerPolicy) SimOption {
	return func(c *simConfig) error {
		c.pointers = p
		return nil
	}
}

// CustomPointers sets the exact initial pointer of every node
// (rotor-router only); it overrides Pointers.
func CustomPointers(ptr []int) SimOption {
	return func(c *simConfig) error {
		c.customPtr = append([]int(nil), ptr...)
		return nil
	}
}

// Seed fixes the randomness used by PlaceRandom, PointerRandom and the
// random-walk simulator. The default seed is 1.
func Seed(s uint64) SimOption {
	return func(c *simConfig) error {
		c.seed = s
		return nil
	}
}

// TrackDomains enables domain and lazy-domain analysis (ring topologies
// only). It reads every round's flows from the rotor's flow view, O(n) per
// round on top of stepping, and keeps the stepping kernel.
func TrackDomains() SimOption {
	return func(c *simConfig) error {
		c.tracking = true
		return nil
	}
}

// Kernel selects the stepping tier; the default is KernelAuto. Rotor
// simulations produce bit-identical results on every tier; random-walk
// simulations run exactly the same process but consume the seed's random
// stream differently per tier, so individual trajectories (not their
// distribution) change with the tier.
func Kernel(k KernelPolicy) SimOption {
	return func(c *simConfig) error {
		if k < KernelAuto || k > KernelFast {
			return fmt.Errorf("rotorring: unknown kernel policy %d", k)
		}
		c.kernel = k
		return nil
	}
}

// resolve computes concrete positions and pointers from the options,
// through the engine's placement and pointer policies (zero values select
// PlaceSingleNode and PointerZero).
func (c *simConfig) resolve(g *Graph) (positions []int, pointers []int, err error) {
	rng := xrand.New(c.seed)
	positions = c.positions
	if positions == nil {
		placement := c.placement
		if placement == 0 {
			placement = PlaceSingleNode
		}
		if positions, err = placement.Positions(g, max(c.k, 1), rng); err != nil {
			return nil, nil, err
		}
	}
	pointers = c.customPtr
	if pointers == nil {
		policy := c.pointers
		if policy == 0 {
			policy = PointerZero
		}
		if pointers, err = policy.Pointers(g, positions, rng); err != nil {
			return nil, nil, err
		}
	}
	return positions, pointers, nil
}

// RotorSim is a running multi-agent rotor-router simulation.
type RotorSim struct {
	sys     *core.System
	tracker *ringdom.Tracker
}

// newRotorSim creates a rotor-router simulation on g. With no options a
// single agent starts on node 0 with all pointers at port 0.
func newRotorSim(g *Graph, opts ...SimOption) (*RotorSim, error) {
	cfg := simConfig{seed: 1}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	positions, pointers, err := cfg.resolve(g)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(g,
		core.WithAgentsAt(positions...),
		core.WithPointers(pointers),
		core.WithKernelMode(cfg.kernel.CoreMode()))
	if err != nil {
		return nil, err
	}
	sim := &RotorSim{sys: sys}
	if cfg.tracking {
		tr, err := ringdom.NewTracker(sys)
		if err != nil {
			return nil, fmt.Errorf("rotorring: TrackDomains: %w", err)
		}
		sim.tracker = tr
	}
	return sim, nil
}

// NumAgents returns k.
func (s *RotorSim) NumAgents() int { return int(s.sys.NumAgents()) }

// Graph returns the topology the simulation runs on.
func (s *RotorSim) Graph() *Graph { return s.sys.Graph() }

// ProcessName returns the registry name of this process kind: "rotor".
func (s *RotorSim) ProcessName() string { return engine.ProcRotor }

// KernelName reports the stepping tier fully-active rounds run on: "ring"
// or "path" for the flat kernels, "ring-sparse" or "path-sparse" for the
// sparse degree-2 round below the flat kernels' density threshold, and
// "generic" otherwise.
func (s *RotorSim) KernelName() string { return s.sys.KernelName() }

// Round returns the number of completed rounds.
func (s *RotorSim) Round() int64 { return s.sys.Round() }

// Positions returns the sorted multiset of current agent positions.
func (s *RotorSim) Positions() []int { return s.sys.Positions() }

// Visits returns the visit counter n_v(t) of node v (initial agents at v
// plus arrivals).
func (s *RotorSim) Visits(v int) int64 { return s.sys.Visits(v) }

// Pointer returns the current port pointer at v.
func (s *RotorSim) Pointer(v int) int { return s.sys.Pointer(v) }

// Covered returns how many nodes have been visited so far.
func (s *RotorSim) Covered() int { return s.sys.Covered() }

// Step advances one synchronous round.
func (s *RotorSim) Step() {
	if s.tracker != nil {
		s.tracker.Step()
		return
	}
	s.sys.Step()
}

// Run advances the given number of rounds. A negative count is an error
// and leaves the simulation untouched.
func (s *RotorSim) Run(rounds int64) error {
	if rounds < 0 {
		return errNegativeRounds(rounds)
	}
	for i := int64(0); i < rounds; i++ {
		s.Step()
	}
	return nil
}

// Reset restores the initial configuration (agents, pointers) and clears
// all counters, allowing a fresh run without reallocation. With
// TrackDomains the tracker restarts too: classification resumes from the
// initial configuration.
func (s *RotorSim) Reset() {
	s.sys.Reset()
	if s.tracker != nil {
		// Cannot fail: the system kept the ring topology that made the
		// original tracker valid.
		if tr, err := ringdom.NewTracker(s.sys); err == nil {
			s.tracker = tr
		}
	}
}

// Clone returns an independent deep copy that evolves identically from the
// current state. With TrackDomains the clone attaches a fresh tracker:
// visits before the clone are unclassified on it (mirroring
// ringdom.NewTracker on a mid-run system).
func (s *RotorSim) Clone() Process {
	c := &RotorSim{sys: s.sys.Clone()}
	if s.tracker != nil {
		if tr, err := ringdom.NewTracker(c.sys); err == nil {
			c.tracker = tr
		}
	}
	return c
}

// CoverTime runs until every node has been visited and returns the cover
// time. maxRounds = 0 selects the automatic budget shared with the sweep
// engine (engine.AutoBudget); exceeding the budget returns an error
// wrapping ErrNotCovered (and core.ErrNotCovered).
func (s *RotorSim) CoverTime(maxRounds int64) (int64, error) {
	if maxRounds < 0 {
		return 0, errNegativeRounds(maxRounds)
	}
	if maxRounds == 0 {
		maxRounds = engine.AutoBudget(s.sys.Graph(), engine.ProcRotor, engine.MetricCover)
	}
	if s.tracker == nil {
		t, err := s.sys.RunUntilCovered(maxRounds)
		if err != nil {
			return t, fmt.Errorf("%w: %w", ErrNotCovered, err)
		}
		return t, nil
	}
	// Step through the tracker so domain classification stays coherent.
	n := s.sys.Graph().NumNodes()
	for s.sys.Covered() < n {
		if s.sys.Round() >= maxRounds {
			return s.sys.Round(), fmt.Errorf("%w: %w after %d rounds (%d/%d nodes)",
				ErrNotCovered, core.ErrNotCovered, s.sys.Round(), s.sys.Covered(), n)
		}
		s.tracker.Step()
	}
	return s.sys.CoverRound(), nil
}

// ReturnStats reports the limit-behavior recurrence measurements (§4).
type ReturnStats = core.ReturnStats

// LimitCycle describes the detected limit cycle of the deterministic
// system.
type LimitCycle = core.LimitCycle

// returnBudget resolves the automatic budget of recurrence measurements
// (the shared engine.AutoBudget rule: 4x the deterministic cover budget)
// and rejects negative budgets like the other round-taking methods.
func (s *RotorSim) returnBudget(maxRounds int64) (int64, error) {
	if maxRounds < 0 {
		return 0, errNegativeRounds(maxRounds)
	}
	if maxRounds == 0 {
		return engine.AutoBudget(s.sys.Graph(), engine.ProcRotor, engine.MetricReturn), nil
	}
	return maxRounds, nil
}

// ReturnTime locates the limit cycle and measures the paper's return time
// exactly over one period. maxRounds = 0 selects an automatic budget. The
// simulation is parked inside the limit cycle afterwards.
func (s *RotorSim) ReturnTime(maxRounds int64) (*ReturnStats, error) {
	budget, err := s.returnBudget(maxRounds)
	if err != nil {
		return nil, err
	}
	return core.MeasureReturnTime(s.sys, budget)
}

// ReturnTimeContext is ReturnTime with amortized cancellation: the context
// is polled every few thousand steps of the cycle search and period
// measurement (never per round), and a cancelled context aborts with its
// error.
func (s *RotorSim) ReturnTimeContext(ctx context.Context, maxRounds int64) (*ReturnStats, error) {
	budget, err := s.returnBudget(maxRounds)
	if err != nil {
		return nil, err
	}
	rs, err := core.MeasureReturnTimeStop(s.sys, budget,
		func() bool { return ctx.Err() != nil })
	if err != nil && errors.Is(err, core.ErrStopped) {
		return nil, ctx.Err()
	}
	return rs, err
}

// FindLimitCycle runs forward until the configuration provably repeats.
// maxRounds = 0 selects an automatic budget. computeMu additionally
// computes the exact stabilization round.
func (s *RotorSim) FindLimitCycle(maxRounds int64, computeMu bool) (*LimitCycle, error) {
	budget, err := s.returnBudget(maxRounds)
	if err != nil {
		return nil, err
	}
	return core.FindLimitCycle(s.sys, budget, computeMu)
}

// DomainPartition is the decomposition of the ring into agent domains.
type DomainPartition = ringdom.Partition

// LazyDomainPartition is the decomposition into lazy domains.
type LazyDomainPartition = ringdom.LazyPartition

// Domains computes the current agent-domain partition (ring only).
func (s *RotorSim) Domains() (*DomainPartition, error) {
	return ringdom.Domains(s.sys)
}

// NumDomains returns the current number of agent domains (ring only) — the
// DomainAnalyzer capability the domain-count probe samples.
func (s *RotorSim) NumDomains() (int, error) {
	part, err := ringdom.Domains(s.sys)
	if err != nil {
		return 0, err
	}
	return len(part.Domains), nil
}

// LazyDomains computes the current lazy domains (requires TrackDomains).
func (s *RotorSim) LazyDomains() (*LazyDomainPartition, error) {
	if s.tracker == nil {
		return nil, errors.New("rotorring: LazyDomains requires the TrackDomains option")
	}
	return s.tracker.LazyDomains()
}

// Borders classifies the borders between adjacent lazy domains (requires
// TrackDomains).
func (s *RotorSim) Borders() ([]ringdom.Border, error) {
	if s.tracker == nil {
		return nil, errors.New("rotorring: Borders requires the TrackDomains option")
	}
	return s.tracker.Borders()
}
