package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the engine's mission registry, the sixth registry next to
// processes, metrics (process.go), topologies (topology.go), schedules
// (schedule.go) and sinks (sinkregistry.go): sweeps name their termination
// predicate and mission-scoped metrics as parameterized spec strings, and
// the registry supplies the parser, the deterministic compiler and the
// per-job state factory, so a new mission family plugs in with one
// RegisterMission call — no engine edits, no new spec fields.
//
// Spec grammar (case-insensitive, canonicalized to lower case):
//
//	spec   = family [":" params]
//	params = key "=" value {"," key "=" value}   // family-specific keys
//
// A mission turns the engine's fixed round budgets into goal-directed runs:
// instead of "run B rounds, then measure", a mission row is "run until the
// predicate fires (all edges explored, agents home, configuration
// quiescent) or a service horizon elapses, then report mission metrics"
// (mission_rounds, patrol staleness, load-balance fairness). Predicates are
// evaluated at round granularity from incremental state — missions dispatch
// on the FlowViewer and ConfigHasher capabilities, reading the last round's
// flows rather than rescanning O(E) state, and the process keeps its
// stepping kernel — and consume no randomness of their own, so mission rows
// inherit the engine's bit-reproducibility across worker counts and kernel
// tiers unchanged. The built-in families are in missions.go.

// Mission is one parameterized mission spec in a sweep, e.g. "none",
// "explore", "return", "quiesce:window=4096", "patrol:horizon=4096",
// "balance:horizon=4096,warmup=0". Use ParseMission to validate and
// canonicalize one.
type Mission string

func (m Mission) String() string { return string(m) }

// MissionNone is the canonical no-mission spec: cells carrying it run the
// plain metric measurement under the round budget, exactly as if missions
// did not exist.
const MissionNone = "none"

// MissionPlan is the compiled, deterministic form of one mission spec.
// Plans are immutable and shared by every job of a cell.
type MissionPlan struct {
	// Horizon is the fixed round count of a service mission (patrol,
	// balance): the mission completes when the run reaches it. 0 for
	// predicate missions, which run until their predicate fires.
	Horizon int64
	// Warmup is the stabilization prefix of a service mission: rounds
	// <= Warmup are excluded from staleness/fairness accounting.
	Warmup int64
	// Window is the trailing recurrence-detection window of the quiesce
	// mission. 0 elsewhere.
	Window int64
	// BudgetFactor multiplies the automatic round budget of mission jobs
	// (after any schedule extension): predicate missions may need to run
	// well past cover time. The budget is additionally floored at Horizon.
	// An explicit SweepSpec.MaxRounds is never extended — it is the hard
	// cap that turns a non-terminating mission into a mission_timeout row.
	BudgetFactor int64
}

// finalize derives defaults; family compilers call it last.
func (p *MissionPlan) finalize() *MissionPlan {
	if p.BudgetFactor < 1 {
		p.BudgetFactor = 1
	}
	return p
}

// MissionState is the per-job incremental predicate/metric state of one
// mission. The mission runner steps the process one round at a time and
// calls Observe after each round, which reads the round's arc-level detail
// from the process's flow view. Finish runs once at the end (predicate
// fired or horizon reached, not on timeout) and writes the mission's
// metrics into the row.
type MissionState interface {
	// Observe is called after each completed round with the process's
	// round counter.
	Observe(round int64)
	// Done reports whether the mission is complete. It is polled once per
	// round, immediately after Observe.
	Done() bool
	// Finish writes mission metrics (staleness, fairness, period) into the
	// row of a completed mission.
	Finish(row *Row)
}

// MissionDef describes one registered mission family. Parse must be cheap
// (string validation only) — specs are validated eagerly, before any sweep
// worker starts. Compile must be deterministic given the canonical params.
// New builds the per-job state, dispatching on the capabilities of the
// measurement target (FlowViewer, ConfigHasher) and returning an error when
// the process lacks one — the runner turns that into a per-job error row,
// mirroring metric capability dispatch.
type MissionDef struct {
	// Name is the registry key and the spec's family prefix, as it appears
	// in SweepSpec.Missions, rows and CLI flags.
	Name string
	// Parse validates the spec's parameter string (the part after "name:",
	// empty when absent) and returns its canonical form. The canonical
	// spec re-parses to itself.
	Parse func(params string) (canonical string, err error)
	// Compile turns canonical params into the immutable plan.
	Compile func(params string) (*MissionPlan, error)
	// New builds the job's mission state over p (more precisely the
	// measurement target under any schedule wrapper), which its Observe
	// reads. procName is the process registry name, for error messages.
	New func(plan *MissionPlan, procName string, env *JobEnv, p Proc) (MissionState, error)
}

var (
	missionMu sync.RWMutex
	missions  = map[string]*MissionDef{}
)

// RegisterMission adds a mission family to the registry. Names are
// normalized to lower case (specs lowercase their input before lookup);
// duplicate names panic: family names appear in specs, rows and derived
// file formats and must stay unambiguous.
func RegisterMission(d *MissionDef) {
	if d.Name == "" || d.Parse == nil || d.Compile == nil || d.New == nil {
		panic("engine: RegisterMission needs a name, a parser, a compiler and a state factory")
	}
	d.Name = strings.ToLower(d.Name)
	if strings.ContainsAny(d.Name, ": \t\n") {
		panic(fmt.Sprintf("engine: mission name %q may not contain ':' or spaces", d.Name))
	}
	missionMu.Lock()
	defer missionMu.Unlock()
	if _, dup := missions[d.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate mission %q", d.Name))
	}
	missions[d.Name] = d
}

// LookupMission returns a registered family by name.
func LookupMission(name string) (*MissionDef, bool) {
	missionMu.RLock()
	defer missionMu.RUnlock()
	d, ok := missions[name]
	return d, ok
}

// MissionNames lists the registered family names, sorted.
func MissionNames() []string {
	missionMu.RLock()
	defer missionMu.RUnlock()
	names := make([]string, 0, len(missions))
	for n := range missions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// missionInstance is the parsed, compiled form of one mission spec.
type missionInstance struct {
	def       *MissionDef
	canonical string       // canonical spec string ("patrol:horizon=4096")
	plan      *MissionPlan // immutable, shared by every job of the cell
}

// none reports whether the instance is the no-mission spec.
func (mi missionInstance) none() bool { return mi.canonical == MissionNone }

// cellName is the mission string a cell carries: empty for "none", so
// mission-less rows serialize exactly as they did before missions existed.
func (mi missionInstance) cellName() string {
	if mi.none() {
		return ""
	}
	return mi.canonical
}

// parseMission parses, validates and compiles one spec string against the
// registry.
func parseMission(s string) (missionInstance, error) {
	str := strings.ToLower(strings.TrimSpace(s))
	name, params, _ := strings.Cut(str, ":")
	name = strings.TrimSpace(name)
	def, ok := LookupMission(name)
	if !ok {
		return missionInstance{}, fmt.Errorf("engine: unknown mission %q (registered: %s)",
			name, strings.Join(MissionNames(), "|"))
	}
	canon, err := def.Parse(strings.TrimSpace(params))
	if err != nil {
		return missionInstance{}, fmt.Errorf("engine: mission %q: %w", str, err)
	}
	plan, err := def.Compile(canon)
	if err != nil {
		return missionInstance{}, fmt.Errorf("engine: mission %q: %w", str, err)
	}
	return missionInstance{
		def:       def,
		canonical: specString(def.Name, canon),
		plan:      plan.finalize(),
	}, nil
}

// ParseMission validates a mission spec string and returns its canonical
// form. The canonical form re-parses to itself.
func ParseMission(s string) (Mission, error) {
	inst, err := parseMission(s)
	if err != nil {
		return "", err
	}
	return Mission(inst.canonical), nil
}

// measureMission is the mission runner: it drives the process one round at
// a time, feeding each completed round to the mission state, until the
// mission is done or the round budget runs out. A budget exhaustion is an
// outcome, not an error: the row reports mission_timeout=true with the
// rounds spent, so unbounded missions (a random walk asked to "return", a
// too-small explicit MaxRounds) degrade into data instead of hanging a
// worker. Stepping goes through Proc.Step so holds and pointer resets from
// a composed schedule apply as usual.
func measureMission(p Proc, mi missionInstance, procName string, env *JobEnv, budget int64, row *Row) {
	target := measureTarget(p)
	st, err := mi.def.New(mi.plan, procName, env, target)
	if err != nil {
		row.Err = err.Error()
		return
	}
	for !st.Done() {
		if p.Round() >= budget {
			row.MissionTimeout = true
			row.Rounds = p.Round()
			row.MissionRounds = p.Round()
			return
		}
		p.Step()
		st.Observe(p.Round())
	}
	row.Rounds = p.Round()
	row.MissionRounds = p.Round()
	row.Value = float64(p.Round())
	st.Finish(row) // service missions override Value with their metric
}
