package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"rotorring/internal/registry"
)

// This file is the engine's schedule registry: sweeps name their
// perturbation scenarios as parameterized spec strings, and the registry
// supplies the parser and the deterministic compiler, so a new scenario
// family plugs in with one RegisterSchedule call — no engine edits, no new
// spec fields.
//
// Spec grammar (case-insensitive, canonicalized to lower case):
//
//	spec   = family [":" params]
//	params = key "=" value {"," key "=" value}   // family-specific keys
//
// A schedule compiles to a deterministic plan: a sorted stream of discrete
// events (edge failure/repair, agent churn, pointer resets) plus an
// optional per-round hold regime (delayed deployments, §2.1). The plan
// depends only on the canonical spec; every seed-dependent choice (which
// edge fails, who joins where) is drawn at apply time from the job's
// schedule stream, derived from the job seed and the canonical spec — never
// from worker identity — so scheduled sweeps keep the engine's
// bit-reproducibility across worker counts. The built-in families are in
// schedules.go, the wrapper that applies a plan to a running process in
// scheduled.go.

// Schedule is one parameterized schedule spec in a sweep, e.g. "none",
// "delay:p=0.25", "edgefail:t=1000,count=4", "churn:join=8@500,leave=4@900",
// "reset:t=256". Use ParseSchedule to validate and canonicalize one.
type Schedule string

func (s Schedule) String() string { return string(s) }

// SchedNone is the canonical no-perturbation schedule: cells carrying it
// run exactly the pristine, static process.
const SchedNone = "none"

// ScheduleEventKind enumerates the discrete perturbation events a plan may
// contain.
type ScheduleEventKind int

// Event kinds.
const (
	// EvEdgeFail deletes Count non-bridge edges, chosen uniformly from the
	// schedule stream (the graph stays connected by construction).
	EvEdgeFail ScheduleEventKind = iota + 1
	// EvRepair restores every edge deleted so far.
	EvRepair
	// EvJoin adds Count agents at positions drawn from the schedule stream.
	EvJoin
	// EvLeave removes Count agents chosen uniformly from the current
	// population (always leaving at least one).
	EvLeave
	// EvReset rewinds every rotor pointer to port 0.
	EvReset
)

func (k ScheduleEventKind) String() string {
	switch k {
	case EvEdgeFail:
		return "edgefail"
	case EvRepair:
		return "repair"
	case EvJoin:
		return "join"
	case EvLeave:
		return "leave"
	case EvReset:
		return "reset"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// ScheduleEvent is one discrete perturbation: Kind applied when the run
// reaches Round (after round Round completes, before round Round+1 steps).
type ScheduleEvent struct {
	Round int64
	Kind  ScheduleEventKind
	Count int
}

// SchedulePlan is the compiled, deterministic form of one schedule: what a
// job applies to its process. Plans are immutable and shared by every job
// of a cell.
type SchedulePlan struct {
	// Events is the discrete event stream, sorted by round.
	Events []ScheduleEvent
	// HoldP is the per-agent hold probability of the delayed-deployment
	// regime (0 = no holds): every round while the regime is active, each
	// agent independently skips its move with probability HoldP.
	HoldP float64
	// HoldUntil is the first round the hold regime no longer applies to;
	// math.MaxInt64 when unbounded. Meaningless while HoldP == 0.
	HoldUntil int64
	// BudgetFactor and BudgetOffset extend the automatic round budget of
	// perturbed jobs (see AutoBudget and the runner): budget =
	// auto·Factor + Offset. Factor >= 1; Offset is typically the last event
	// round, so post-event work keeps a full budget.
	BudgetFactor int64
	BudgetOffset int64
	// FaultRound is the round after which every discrete perturbation has
	// been applied (the boundary the re-stabilization metrics measure
	// from): the last event round, or the hold regime's end when bounded.
	// -1 when the schedule has no such boundary (no perturbation at all,
	// or an unbounded hold regime).
	FaultRound int64
}

// finalize sorts the event stream and derives FaultRound and the budget
// extension defaults; family compilers call it last.
func (p *SchedulePlan) finalize() *SchedulePlan {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Round < p.Events[j].Round })
	p.FaultRound = -1
	if len(p.Events) > 0 {
		p.FaultRound = p.Events[len(p.Events)-1].Round
	}
	if p.HoldP > 0 && p.HoldUntil < math.MaxInt64 && p.HoldUntil > p.FaultRound {
		p.FaultRound = p.HoldUntil
	}
	if p.BudgetFactor < 1 {
		p.BudgetFactor = 1
	}
	if p.FaultRound > 0 && p.BudgetOffset < p.FaultRound {
		p.BudgetOffset = p.FaultRound
	}
	return p
}

// ScheduleDef describes one registered schedule family. Parse must be cheap
// (string validation only) — specs are validated eagerly, before any sweep
// worker starts. Compile must be deterministic given the canonical params:
// the engine's bit-reproducibility across worker counts rests on it.
type ScheduleDef struct {
	// Name is the registry key and the spec's family prefix, as it appears
	// in SweepSpec.Schedules, rows and CLI flags.
	Name string
	// Parse validates the spec's parameter string (the part after "name:",
	// empty when absent) and returns its canonical form. The canonical
	// spec re-parses to itself.
	Parse func(params string) (canonical string, err error)
	// Compile turns canonical params into the immutable plan a job applies.
	Compile func(params string) (*SchedulePlan, error)
}

// Schedules is the schedule-family registry.
var Schedules = registry.New[*ScheduleDef]("engine", "schedule")

// RegisterSchedule adds a schedule family to Schedules under its
// lower-cased name.
func RegisterSchedule(d *ScheduleDef) {
	if d.Parse == nil || d.Compile == nil {
		panic("engine: RegisterSchedule needs a parser and a compiler")
	}
	d.Name = strings.ToLower(d.Name)
	Schedules.Add(d.Name, d)
}

// schedInstance is the parsed, compiled form of one schedule spec.
type schedInstance struct {
	def       *ScheduleDef
	canonical string        // canonical spec string ("delay:p=0.25")
	plan      *SchedulePlan // immutable, shared by every job of the cell
}

// none reports whether the instance is the no-perturbation schedule.
func (si schedInstance) none() bool { return si.canonical == SchedNone }

// cellName is the schedule string a cell carries: empty for "none", so
// unperturbed rows serialize exactly as they did before schedules existed.
func (si schedInstance) cellName() string {
	if si.none() {
		return ""
	}
	return si.canonical
}

// parseSchedule parses, validates and compiles one spec string against the
// registry.
func parseSchedule(s string) (schedInstance, error) {
	def, str, params, err := Schedules.Split(s)
	if err != nil {
		return schedInstance{}, err
	}
	canon, err := def.Parse(params)
	if err != nil {
		return schedInstance{}, fmt.Errorf("engine: schedule %q: %w", str, err)
	}
	plan, err := def.Compile(canon)
	if err != nil {
		return schedInstance{}, fmt.Errorf("engine: schedule %q: %w", str, err)
	}
	return schedInstance{
		def:       def,
		canonical: specString(def.Name, canon),
		plan:      plan,
	}, nil
}

// ParseSchedule validates a schedule spec string and returns its canonical
// form. The canonical form re-parses to itself.
func ParseSchedule(s string) (Schedule, error) {
	inst, err := parseSchedule(s)
	if err != nil {
		return "", err
	}
	return Schedule(inst.canonical), nil
}

// scheduleSeedOf derives the schedule stream seed of one job: every
// seed-dependent choice a schedule makes (failing edges, join positions,
// leaving agents, hold draws) is drawn from it. It folds the canonical spec
// into the job seed, so the same job under different schedules shares its
// initial configuration (directly comparable rows) while the perturbation
// streams decorrelate.
func scheduleSeedOf(jobSeed uint64, canonical string) uint64 {
	return DeriveSeed(jobSeed, hashString("schedule"), hashString(canonical))
}

// --- spec-string parsing helpers ------------------------------------------

// maxRound bounds every parsed round parameter so downstream budget
// arithmetic (auto·factor + offset) cannot overflow.
const maxRound = int64(1) << 40

// kvPairs parses a "k1=v1,k2=v2" parameter string, rejecting unknown and
// duplicate keys. allowed maps each key to a short value description used
// in errors.
func kvPairs(params string, allowed map[string]string) (map[string]string, error) {
	out := make(map[string]string, len(allowed))
	if params == "" {
		return out, nil
	}
	for _, part := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(part, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", strings.TrimSpace(part))
		}
		if _, known := allowed[k]; !known {
			keys := make([]string, 0, len(allowed))
			for a := range allowed {
				keys = append(keys, a)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("unknown key %q (want %s)", k, strings.Join(keys, "|"))
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		out[k] = v
	}
	return out, nil
}

// roundValue parses a round-number value (>= 1, bounded by maxRound).
func roundValue(key, v string) (int64, error) {
	t, err := strconv.ParseInt(v, 10, 64)
	if err != nil || t < 1 {
		return 0, fmt.Errorf("%s=%s: want a positive round number", key, v)
	}
	if t > maxRound {
		return 0, fmt.Errorf("%s=%d exceeds the maximum %d", key, t, maxRound)
	}
	return t, nil
}

// countValue parses a count value (>= 1, small enough to stay sane).
func countValue(key, v string) (int, error) {
	c, err := strconv.Atoi(v)
	if err != nil || c < 1 {
		return 0, fmt.Errorf("%s=%s: want a positive count", key, v)
	}
	if c > maxDim {
		return 0, fmt.Errorf("%s=%d exceeds the maximum %d", key, c, maxDim)
	}
	return c, nil
}

// countAt parses a "<count>@<round>" value.
func countAt(key, v string) (int, int64, error) {
	cs, rs, ok := strings.Cut(v, "@")
	if !ok {
		return 0, 0, fmt.Errorf("%s=%s: want <count>@<round>", key, v)
	}
	c, err := countValue(key, strings.TrimSpace(cs))
	if err != nil {
		return 0, 0, err
	}
	r, err := roundValue(key, strings.TrimSpace(rs))
	if err != nil {
		return 0, 0, err
	}
	return c, r, nil
}

// formatFloat renders a probability canonically (shortest round-trip form).
func formatFloat(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}
