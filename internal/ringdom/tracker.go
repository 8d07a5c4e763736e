package ringdom

import (
	"fmt"

	"rotorring/internal/core"
	"rotorring/internal/graph"
)

// VisitKind classifies a completed visit per §2.2: a propagation continues
// through the node, a reflection bounces back toward where it came from.
type VisitKind int

const (
	// VisitUnknown marks visits not yet classified (classification of the
	// visit at round t needs the departure flows of round t+1).
	VisitUnknown VisitKind = iota
	// VisitPropagation is a single-agent visit after which the agent moved
	// on to the node opposite its arrival.
	VisitPropagation
	// VisitReflection is a single-agent visit after which the agent moved
	// back to the node it arrived from.
	VisitReflection
	// VisitMulti is a visit by two agents at once (both directions); such
	// visits never qualify a node for a lazy domain.
	VisitMulti
)

// String implements fmt.Stringer.
func (k VisitKind) String() string {
	switch k {
	case VisitPropagation:
		return "propagation"
	case VisitReflection:
		return "reflection"
	case VisitMulti:
		return "multi"
	default:
		return "unknown"
	}
}

// visitRecord remembers the most recent classified visit of a node.
type visitRecord struct {
	round int64
	kind  VisitKind
}

// Tracker steps a rotor-router on the ring and classifies every visit, so
// that lazy domains (Definition 1) can be computed at any time. The wrapped
// system must run on graph.Ring, on any kernel tier: the tracker reads each
// round's flows from the system's flow view. All stepping must go through
// Tracker.Step: external steps would lose visit classifications.
type Tracker struct {
	sys *core.System
	n   int

	// out[2v+p] is the number of agents that left v through port p in the
	// last round, gathered from the flow view once per Step; set lists the
	// entries that round wrote, so the next Step zeroes only those.
	out []int64
	set []int

	// lastClassified[v] is the most recent fully classified visit of v.
	lastClassified []visitRecord
	// pending holds the nodes visited in the last completed round, whose
	// classification requires the next round's departure flows.
	pending []pendingVisit
}

type pendingVisit struct {
	node   int
	fromCW bool // arrived from the clockwise neighbor (moving CCW)
	multi  bool
	round  int64
}

// NewTracker wraps sys. The system may be mid-run; visits before tracking
// started are unclassified, so lazy domains become meaningful one full
// domain traversal after attachment.
func NewTracker(sys *core.System) (*Tracker, error) {
	n, err := ringOf(sys)
	if err != nil {
		return nil, err
	}
	return &Tracker{
		sys:            sys,
		n:              n,
		out:            make([]int64, 2*n),
		lastClassified: make([]visitRecord, n),
	}, nil
}

// System returns the wrapped system.
func (t *Tracker) System() *core.System { return t.sys }

// Step advances the system one round and folds the new flow information
// into the visit classification.
func (t *Tracker) Step() {
	t.sys.Step()
	for _, i := range t.set {
		t.out[i] = 0
	}
	t.set = t.set[:0]
	t.sys.ForEachFlow(t.setOut)

	// 1. Classify the previous round's visits using this round's
	// departures. A node visited by a single agent at round r holds
	// exactly that agent at the start of round r+1, so exactly one of its
	// two outgoing arcs carries flow now.
	for _, pv := range t.pending {
		v := pv.node
		kind := VisitMulti
		if !pv.multi {
			outCW := t.flow(v, graph.RingCW) > 0
			// Arrived from the anticlockwise side moving clockwise:
			// continuing clockwise is a propagation. Arrived from the
			// clockwise side moving anticlockwise: continuing (out the
			// anticlockwise port) is a propagation.
			movedOnCW := !pv.fromCW && outCW
			movedOnCCW := pv.fromCW && !outCW
			if movedOnCW || movedOnCCW {
				kind = VisitPropagation
			} else {
				kind = VisitReflection
			}
		}
		t.lastClassified[v] = visitRecord{round: pv.round, kind: kind}
	}
	t.pending = t.pending[:0]

	// 2. Record this round's arrivals for classification next round: the
	// heads of the arcs that carried flow. A node entered from both sides
	// is recorded once, at its clockwise arrival.
	round := t.sys.Round()
	for _, i := range t.set {
		var v int
		var fromCCW, fromCW int64 // arrived moving clockwise, anticlockwise
		if u := i >> 1; i&1 == graph.RingCW {
			v = t.cw(u)
			fromCCW, fromCW = t.out[i], t.flow(t.cw(v), graph.RingCCW)
		} else {
			v = t.ccw(u)
			fromCCW, fromCW = t.flow(t.ccw(v), graph.RingCW), t.out[i]
			if fromCCW > 0 {
				continue
			}
		}
		t.pending = append(t.pending, pendingVisit{
			node:   v,
			fromCW: fromCW > 0 && fromCCW == 0,
			multi:  fromCW+fromCCW > 1,
			round:  round,
		})
	}
}

func (t *Tracker) setOut(v, port int, agents int64) {
	t.out[2*v+port] = agents
	t.set = append(t.set, 2*v+port)
}

// flow returns how many agents left v through port p in the last round.
func (t *Tracker) flow(v, p int) int64 { return t.out[2*v+p] }

// cw and ccw return v's clockwise and anticlockwise neighbours.
func (t *Tracker) cw(v int) int {
	if v == t.n-1 {
		return 0
	}
	return v + 1
}

func (t *Tracker) ccw(v int) int {
	if v == 0 {
		return t.n - 1
	}
	return v - 1
}

// Run advances the tracker the given number of rounds.
func (t *Tracker) Run(rounds int64) {
	for i := int64(0); i < rounds; i++ {
		t.Step()
	}
}

// LastVisitKind returns the classification of v's most recent classified
// visit (VisitUnknown if v has not had one since tracking began).
func (t *Tracker) LastVisitKind(v int) VisitKind { return t.lastClassified[v].kind }

// LazyDomain is the lazy domain V'_a of one agent: the subset of its domain
// whose nodes' last classified visits were single-agent propagations. By
// Lemma 6 it is a contiguous sub-arc of the domain missing at most the
// domain's endpoints.
type LazyDomain struct {
	// Anchor and Half identify the owning domain (see Domain).
	Anchor int
	Half   int
	// Start and Size delimit the lazy arc; Size may be 0 when no node of
	// the domain qualifies yet.
	Start int
	Size  int
	// DomainSize is the size of the enclosing (full) domain.
	DomainSize int
}

// LazyPartition holds the lazy domains at one instant, in ring order.
type LazyPartition struct {
	N       int
	Domains []LazyDomain
}

// Sizes returns the lazy domain sizes in ring order.
func (lp *LazyPartition) Sizes() []int {
	out := make([]int, len(lp.Domains))
	for i, d := range lp.Domains {
		out[i] = d.Size
	}
	return out
}

// MinSize returns the smallest lazy-domain size.
func (lp *LazyPartition) MinSize() int {
	if len(lp.Domains) == 0 {
		return 0
	}
	m := lp.Domains[0].Size
	for _, d := range lp.Domains[1:] {
		if d.Size < m {
			m = d.Size
		}
	}
	return m
}

// MaxAdjacentDiff returns the largest absolute size difference between
// lazy domains adjacent in ring order — the quantity Lemma 12 bounds by 10
// in the limit.
func (lp *LazyPartition) MaxAdjacentDiff() int {
	k := len(lp.Domains)
	if k < 2 {
		return 0
	}
	maxDiff := 0
	for i := 0; i < k; i++ {
		a := lp.Domains[i].Size
		b := lp.Domains[(i+1)%k].Size
		d := a - b
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// LazyDomains computes the current lazy partition: the intersection of each
// full domain with the set of nodes whose last classified visit was a
// single-agent propagation. It also verifies Lemma 6's structural claim
// that the qualifying nodes of each domain form one contiguous arc.
func (t *Tracker) LazyDomains() (*LazyPartition, error) {
	part, err := Domains(t.sys)
	if err != nil {
		return nil, err
	}
	lp := &LazyPartition{N: t.n}
	for _, d := range part.Domains {
		ld := LazyDomain{Anchor: d.Anchor, Half: d.Half, DomainSize: d.Size}
		// Scan the domain's arc for the contiguous run of propagation
		// nodes. Lemma 6: qualifying nodes form one run, possibly missing
		// the arc's endpoints.
		runStart, runLen := -1, 0
		curStart, curLen := -1, 0
		runs := 0
		for off := 0; off < d.Size; off++ {
			v := (d.Start + off) % t.n
			if t.lastClassified[v].kind == VisitPropagation {
				if curLen == 0 {
					curStart = v
					runs++
				}
				curLen++
				if curLen > runLen {
					runStart, runLen = curStart, curLen
				}
			} else {
				curLen = 0
			}
		}
		if runs > 1 {
			return nil, fmt.Errorf("ringdom: lazy domain of anchor %d splits into %d runs (Lemma 6 violated)",
				d.Anchor, runs)
		}
		if runLen > 0 {
			ld.Start, ld.Size = runStart, runLen
		}
		lp.Domains = append(lp.Domains, ld)
	}
	return lp, nil
}

// BorderKind classifies the border between two adjacent lazy domains
// (Fig. 1 of the paper).
type BorderKind int

const (
	// BorderVertex: exactly one node separates the two lazy arcs (the
	// node-type border of Fig. 1a).
	BorderVertex BorderKind = iota + 1
	// BorderEdge: the two lazy arcs are adjacent, separated only by the
	// edge between their endpoints (Fig. 1b).
	BorderEdge
	// BorderWide: more than one node separates the arcs (a border not yet
	// settled into one of the paper's two limit shapes, or bordering
	// unexplored territory).
	BorderWide
)

// String implements fmt.Stringer.
func (b BorderKind) String() string {
	switch b {
	case BorderVertex:
		return "vertex-type"
	case BorderEdge:
		return "edge-type"
	case BorderWide:
		return "wide"
	default:
		return "unknown"
	}
}

// Border describes the boundary between lazy domains i and i+1 (ring order).
type Border struct {
	Kind BorderKind
	// Gap is the number of non-lazy nodes strictly between the two arcs.
	Gap int
	// LeftEnd is the clockwise endpoint of the left (i-th) lazy arc.
	LeftEnd int
}

// Borders classifies all borders between consecutive nonempty lazy domains,
// in ring order. Empty lazy domains are skipped.
func (t *Tracker) Borders() ([]Border, error) {
	lp, err := t.LazyDomains()
	if err != nil {
		return nil, err
	}
	var arcs []LazyDomain
	for _, d := range lp.Domains {
		if d.Size > 0 {
			arcs = append(arcs, d)
		}
	}
	if len(arcs) < 2 {
		return nil, nil
	}
	borders := make([]Border, 0, len(arcs))
	for i := range arcs {
		cur := arcs[i]
		next := arcs[(i+1)%len(arcs)]
		leftEnd := (cur.Start + cur.Size - 1) % t.n
		gap := (next.Start - leftEnd - 1 + t.n) % t.n
		kind := BorderWide
		switch gap {
		case 0:
			kind = BorderEdge
		case 1:
			kind = BorderVertex
		}
		borders = append(borders, Border{Kind: kind, Gap: gap, LeftEnd: leftEnd})
	}
	return borders, nil
}
