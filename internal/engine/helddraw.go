package engine

import (
	"math"
	"math/bits"

	"rotorring/internal/xrand"
)

// This file is the delayed-deployment draw stream: one Binomial(agents,
// HoldP) hold count per occupied node per held round. The draws are a pure
// function of (hold seed, round, node) — counter-based, not sequential — so
// the stream is independent of chunk boundaries, worker counts, the order a
// held round asks for its nodes in (node order on the packed held round,
// occupied-list order on the generic loop) and every other engine internal:
// any decomposition of a run produces bit-identical draws.
//
// Versioning note: this replaced a sequential stream (one rng shared with
// the event draws, consumed in occupied order). Delay-schedule rows changed
// bytes with the switch — the sanctioned "rowcache/v3" break recorded in
// expand.go.
//
// The hot path inverts precomputed Binomial CDFs branchlessly: threshold
// rows are padded to a fixed width with MaxUint64 sentinels and the draw is
// the borrow-counted number of thresholds at or below the uniform word
// (bits.Sub64 compiles to flag arithmetic, no data-dependent branches), so
// a short-circuiting CDF scan cannot mispredict on nearly every node.

// smallHoldMax bounds the per-count inverse-CDF tables. Hold draws on the
// scheduled hot path are overwhelmingly for small per-node populations
// (k ≈ n/2 spreads a few agents per occupied node); counts above the bound
// fall back to a scratch generator reseeded from the counter.
const smallHoldMax = 16

// tinyHoldMax bounds the fixed-width fast rows: populations of at most 4
// agents cover essentially every node of the dense regimes, and a width-4
// row is 4 flag-arithmetic compares — cheap enough to run unconditionally.
const tinyHoldMax = 4

// heldMixStep is the per-coordinate stride of the counter stream (the
// golden-ratio increment of SplitMix64, reused for the same decorrelation
// purpose).
const heldMixStep = 0x9e3779b97f4a7c15

// heldDraw generates hold counts for one schedule runner. The threshold
// tables are immutable after construction; the scratch generator is
// per-instance (it is reseeded before every large-count draw, so sharing
// would not race logically, but the runners of different jobs step
// concurrently).
type heldDraw struct {
	p    float64
	seed uint64
	// tiny holds the CDF thresholds of Binomial(c, p) for c in 0..4 at a
	// fixed width of 4, padded with MaxUint64 sentinels; row c occupies
	// tiny[c*4 : c*4+4] and row 0 is all sentinels (an empty node draws 0).
	tiny [(tinyHoldMax + 1) * tinyHoldMax]uint64
	// mid holds the same thresholds for c in 1..16 at a fixed width of 16,
	// padded identically — the predictable slow row for mid-size counts.
	mid     [(smallHoldMax + 1) * smallHoldMax]uint64
	scratch *xrand.Rand
}

// newHeldDraw builds the draw stream for hold probability p (in (0,1)) and
// the given stream seed.
func newHeldDraw(p float64, seed uint64) *heldDraw {
	hd := &heldDraw{p: p, seed: seed, scratch: xrand.New(seed)}
	for i := range hd.tiny {
		hd.tiny[i] = math.MaxUint64
	}
	for i := range hd.mid {
		hd.mid[i] = math.MaxUint64
	}
	q := 1 - p
	for c := int64(1); c <= smallHoldMax; c++ {
		f := math.Pow(q, float64(c)) // pmf(0)
		cdf := 0.0
		for j := int64(0); j < c; j++ {
			cdf += f
			t := scale64(cdf)
			hd.mid[c*smallHoldMax+j] = t
			if c <= tinyHoldMax {
				hd.tiny[c*tinyHoldMax+j] = t
			}
			f *= float64(c-j) / float64(j+1) * (p / q) // pmf(j+1)
		}
	}
	return hd
}

// scale64 maps a CDF value in [0,1] onto the uint64 grid, so a uniform
// 64-bit word inverts it exactly.
func scale64(cdf float64) uint64 {
	if cdf >= 1 {
		return math.MaxUint64
	}
	if cdf <= 0 {
		return 0
	}
	return uint64(math.Ldexp(cdf, 64))
}

// roundBase folds the round number into the stream seed; at folds the
// node in. Two Mix64 layers keep neighboring (round, node) pairs
// decorrelated.
func (hd *heldDraw) roundBase(round int64) uint64 {
	return xrand.Mix64(hd.seed ^ (uint64(round)+1)*heldMixStep)
}

// drawBig handles counts above the fixed-width fast rows: mid-size counts
// borrow-count a padded width-16 row, large counts reseed the scratch
// generator from the same counter word. The count-size branches here are
// rare and predictable by construction.
func (hd *heldDraw) drawBig(u uint64, c int64) int64 {
	if c <= smallHoldMax {
		off := int(c) * smallHoldMax
		var borrows uint64
		for j := 0; j < smallHoldMax; j++ {
			_, b := bits.Sub64(u, hd.mid[off+j], 0)
			borrows += b
		}
		return smallHoldMax - int64(borrows)
	}
	hd.scratch.Reseed(u)
	return hd.scratch.Binomial(c, hd.p)
}

// drawTiny is the draw of a node holding c <= tinyHoldMax agents from its
// uniform word u: the borrow count against c's fixed-width row. It is
// small enough to inline into at.
func (hd *heldDraw) drawTiny(u uint64, c int64) int64 {
	row := (*[tinyHoldMax]uint64)(hd.tiny[c*tinyHoldMax:])
	_, b0 := bits.Sub64(u, row[0], 0)
	_, b1 := bits.Sub64(u, row[1], 0)
	_, b2 := bits.Sub64(u, row[2], 0)
	_, b3 := bits.Sub64(u, row[3], 0)
	return tinyHoldMax - int64(b0+b1+b2+b3)
}

// at returns the hold count of node v holding c agents in the round whose
// counter base is base: Binomial(c, p) drawn from the counter word
// base + (v+1)·heldMixStep.
func (hd *heldDraw) at(base uint64, v int, c int64) int64 {
	u := xrand.Mix64(base + uint64(v+1)*heldMixStep)
	if uint64(c) <= tinyHoldMax {
		return hd.drawTiny(u, c)
	}
	return hd.drawBig(u, c)
}

// heldSeedOf derives the hold-draw stream seed from the job's schedule
// stream seed, decoupling hold draws from the discrete-event draws: plans
// with events but no holds (and vice versa) keep their streams byte-stable
// when the other regime's implementation changes.
func heldSeedOf(scheduleSeed uint64) uint64 {
	return DeriveSeed(scheduleSeed, hashString("helddraw"))
}
