package kernel

import "math/bits"

// The bit-sliced ring and path round. On a degree-2 node the paper's round
// rule is bit arithmetic: m agents send ⌈m/2⌉ through the pointed port and
// ⌊m/2⌋ through the other, and the pointer flips exactly when m is odd (the
// chip rule of Propp's machine on ℤ). With every node's agent count stored
// as bit planes, 64 nodes per machine word, a whole round is a few shifts,
// AND/XORs and one ripple-carry add per word and plane:
//
//   - ⌊m/2⌋ is the count planes shifted down one plane; odd is plane 0.
//   - Ring (port 0 → v+1): the right-going share is R = ⌊m/2⌋ + (odd ∧ ¬P)
//     and the left-going L = ⌊m/2⌋ + (odd ∧ P). Path (port 0 → v−1 inside)
//     swaps the two; its endpoints send all m through their single port, and
//     their pointers stay 0.
//   - The new counts are R shifted one node up plus L shifted one node down,
//     with the ring's wrap; P ^= odd.
//   - Coverage adds the popcount of newly occupied bits.
//
// Bits beyond node n−1 stay zero in every plane, so n need not be a
// multiple of 64. The packed state is allocated on the first packed round
// and mirrors the flat arrays of State lazily: see Materialize and Unpack.
//
// A held round (§2.1) is the same rule applied to the movers: the held
// counts h, asked of the owner node by node, are subtracted plane by plane,
// the movers m − h take the round, and h is added back to the arrivals.
//
// Rounds count no visits. The state keeps a base (its counts a⁰ and
// pointers π⁰ when it was packed or visits were last derived, whose visits
// are in Visits), the number r of packed rounds since and the number M of
// agent moves in them (k a fully-active round, k − held a held one), and a
// read derives every node's visits exactly from conservation (derive). A
// degree-2 pointer flips once per exit, so node v's exits since the base
// are e = 2q + p with p = π ⊕ π⁰, ⌈e/2⌉ = q + p of them through π⁰'s port;
// the flows across the edges, conservation and Σe = M fix every q.

// packed is the bit-sliced configuration. Count planes are word-major:
// plane i of the 64-node word w is cnt[w*stride+i].
type packed struct {
	words  int    // ⌈n/64⌉
	top    uint   // (n−1) mod 64: node n−1's bit in the last word
	last   uint64 // the node bits of the last word
	stride int    // count planes per word: bits.Len64(k) plus one for the carry
	planes int    // active planes of cnt: every count is < 2^planes
	movers int    // active planes of prev
	ring   bool   // the shape the state was packed for: ring or path

	cnt  []uint64 // agent counts
	prev []uint64 // the previous round's counts less its held agents: its movers
	ptr  []uint64 // pointer plane
	cov  []uint64 // covered plane: nodes visited at least once
	rl   []uint64 // round scratch: R then L planes, 2*stride per word, then stride zeros
	held []uint64 // held-round scratch: the held counts, laid out as cnt

	// The base of the visits derive adds: its counts, laid out as cnt with
	// basePlanes active planes, and its pointer plane. rounds counts the
	// packed rounds since and moves the agent moves in them, and at rebase
	// rounds a round derives the visits whether or not anything reads
	// them, so that n·k·rounds, and with it n·moves, stays below 2^62 and
	// derive's sums cannot overflow.
	base       []uint64
	basePtr    []uint64
	basePlanes int
	k          int64
	rounds     int64
	moves      int64
	rebase     int64
}

// Packed reports whether the packed state is valid, that is whether the
// last fully-active round ran packed and no write has dropped it since.
func (st *State) Packed() bool { return st.pk != nil && st.pkOn }

// Materialize brings every flat array up to date with the packed state,
// Visits included, and keeps the packed state valid. It is a no-op when
// they are current; otherwise it costs O(n·planes) for the counts and
// pointers and O(n·planes) more for visits pending since the base, which
// it derives and moves the base to now.
func (st *State) Materialize() {
	if st.stale || st.pkOn && st.pk.rounds > 0 {
		st.materialize()
	}
}

// materialize is Materialize's slow path, apart so that Materialize
// inlines into every per-node read.
func (st *State) materialize() {
	st.MaterializeConfig()
	if st.pk.rounds > 0 {
		st.derive()
	}
}

// MaterializeConfig brings Ptr and Agents up to date with the packed state
// and leaves Visits pending: the view of readers that never read visits,
// such as a configuration hash read every round.
func (st *State) MaterializeConfig() {
	if st.stale {
		st.decode()
	}
}

// decode is MaterializeConfig's slow path: it clears each word's counts and
// sets the bits of every occupied node plane by plane.
func (st *State) decode() {
	pk := st.pk
	agents, ptr := st.Agents[:st.N], st.Ptr[:st.N]
	for w := 0; w < pk.words; w++ {
		lo := w << 6
		a, pv := agents[lo:min(lo+64, st.N)], ptr[lo:min(lo+64, st.N)]
		clear(a)
		for i, x := range pk.cnt[w*pk.stride : w*pk.stride+pk.planes] {
			for ; x != 0; x &= x - 1 {
				a[bits.TrailingZeros64(x)] |= 1 << i
			}
		}
		p := pk.ptr[w]
		for j := range pv {
			pv[j] = int32(p >> j & 1)
		}
	}
	st.stale = false
}

// derive adds the visits of the packed rounds since the base to Visits and
// moves the base to the current configuration. Node v's exits since the
// base are e_v = 2q_v + p_v with p_v = π_v ⊕ π⁰_v, a degree-2 pointer
// flipping once per exit; q_v + c_v of them went right and q_v + d_v left,
// where (c_v, d_v) is (p_v, 0) when π⁰_v pointed right and (0, p_v)
// otherwise. The path's endpoints send all their exits through their one
// port and keep pointer 0: e_v = q_v, with c_v = d_v = 0. Conservation on
// edge (v, v+1) reads R_v − L_{v+1} = Φ − S_v, where S_v = Σ_{u≤v}(a_u − a⁰_u)
// and Φ is the net flow across the ring's wrap edge into node 0 (0 on the
// path), so q_v = t + D_v − v·Φ with D_0 = −d_0 and
// D_{v+1} = D_v + c_v + S_v − d_{v+1}. Closing the ring fixes Φ, and
// Σ_v e_v = moves fixes t. Both divisions are exact on any
// configuration the rounds reach: a remainder is a kernel bug and panics.
// Then V_v = V⁰_v + e_v + a_v − a⁰_v. The first pass adds all of it but
// t − v·Φ, which the second adds once both are known.
func (st *State) derive() {
	pk := st.pk
	n := st.N
	visits := st.Visits[:n]
	var z, s, sumD, sumP int64 // z is D_v + d_v, s is S_{v−1}
	var delta [64]int64        // a_v − a⁰_v across one word
	for w := 0; w < pk.words; w++ {
		lo, o := w<<6, w*pk.stride
		dv := delta[:min(64, n-lo)]
		clear(dv)
		for i, x := range pk.cnt[o : o+pk.planes] {
			for ; x != 0; x &= x - 1 {
				dv[bits.TrailingZeros64(x)] += 1 << i
			}
		}
		for i, x := range pk.base[o : o+pk.basePlanes] {
			for ; x != 0; x &= x - 1 {
				dv[bits.TrailingZeros64(x)] -= 1 << i
			}
		}
		// π⁰ points right at 0 on the ring and at 1 inside the path.
		b := pk.basePtr[w]
		pw := pk.ptr[w] ^ b
		dw := pw & b
		if !pk.ring {
			dw = pw &^ b
		}
		sumP += int64(bits.OnesCount64(pw))
		vs := visits[lo:]
		vs = vs[:len(dv)]
		for j, x := range dv {
			p, d := int64(pw>>j&1), int64(dw>>j&1)
			q := z - d // D_v
			vs[j] += 2*q + p + x
			sumD += q
			s += x
			z += p - 2*d + s
		}
	}
	if s != 0 {
		panic("kernel: packed visits: the rounds changed the agent count")
	}
	// sumW is Σ_v w_v, with e_v = w_v·q_v + p_v, and sumWD the sum of
	// w_v·(D_v − v·Φ).
	sumW, sumWD, phi := int64(2*n), 2*sumD, int64(0)
	if pk.ring {
		if z%int64(n) != 0 {
			panic("kernel: packed visits: the ring's flows do not close")
		}
		phi = z / int64(n)
		sumWD -= phi * int64(n) * int64(n-1)
	} else {
		// The endpoints count D_v once: D_0 = 0, and D_{n−1} = z, as
		// c_{n−1} = S_{n−1} = 0.
		sumW -= 2
		sumWD -= z
		visits[n-1] -= z
	}
	num := pk.moves - sumP - sumWD
	if num < 0 || num%sumW != 0 {
		panic("kernel: packed visits: the exits do not add up to the moves")
	}
	t := num / sumW
	x := 2 * t
	for v := range visits {
		visits[v] += x
		x -= 2 * phi
	}
	if !pk.ring {
		visits[0] -= t
		visits[n-1] -= t
	}
	pk.rebaseNow()
}

// rebaseNow makes the current configuration the base, with no rounds
// since.
func (pk *packed) rebaseNow() {
	for w := 0; w < pk.words; w++ {
		o := w * pk.stride
		copy(pk.base[o:o+pk.planes], pk.cnt[o:o+pk.planes])
	}
	copy(pk.basePtr, pk.ptr)
	pk.basePlanes = pk.planes
	pk.rounds, pk.moves = 0, 0
}

// DiscardVisits moves the base to the current configuration without
// deriving the visits since: the owner is about to overwrite Visits, and a
// later Materialize or Unpack decodes counts and pointers alone.
func (st *State) DiscardVisits() {
	if st.Packed() {
		st.pk.rebaseNow()
	}
}

// Unpack materializes the flat arrays and drops the packed state: the
// owner is about to write them. With movers set, the last packed round's
// pre-round counts go to Scratch, where a flat round leaves its own, so the
// owner's flow view survives the switch.
func (st *State) Unpack(movers bool) {
	if !st.Packed() {
		return
	}
	st.Materialize()
	if movers {
		if len(st.Scratch) != st.N {
			st.Scratch = make([]int64, st.N)
		}
		clear(st.Scratch)
		st.ForEachMover(func(v int, m int64, _ int32) { st.Scratch[v] = m })
	}
	st.pkOn = false
}

// Drop drops the packed state without decoding any of it: the owner is
// about to overwrite every flat array.
func (st *State) Drop() {
	st.pkOn, st.stale = false, false
}

// ForEachMover calls f(v, m, p) for every node v that m ≥ 1 agents left in
// the last packed round, with p its pointer after the round, in node order.
// It costs O(words + occupied nodes).
func (st *State) ForEachMover(f func(v int, m int64, p int32)) {
	pk := st.pk
	for w := 0; w < pk.words; w++ {
		c := pk.prev[w*pk.stride : w*pk.stride+pk.movers]
		var occ uint64
		for _, x := range c {
			occ |= x
		}
		for ; occ != 0; occ &= occ - 1 {
			j := uint(bits.TrailingZeros64(occ))
			var m int64
			for i, x := range c {
				m |= int64(x>>j&1) << i
			}
			f(w<<6|int(j), m, int32(pk.ptr[w]>>j&1))
		}
	}
}

// PackedEqual reports whether two packed states hold the same
// configuration (pointers and agent counts) by comparing words. Both must
// be Packed and of one size. The plane count is canonical, the highest
// plane being nonempty, so unequal plane counts mean unequal counts.
func (st *State) PackedEqual(o *State) bool {
	a, b := st.pk, o.pk
	if a.planes != b.planes {
		return false
	}
	for w := 0; w < a.words; w++ {
		if a.ptr[w] != b.ptr[w] {
			return false
		}
		x := a.cnt[w*a.stride : w*a.stride+a.planes]
		y := b.cnt[w*b.stride : w*b.stride+a.planes]
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// clone returns a deep copy of the packed state.
func (pk *packed) clone() *packed {
	c := *pk
	c.cnt = append([]uint64(nil), pk.cnt...)
	c.prev = make([]uint64, len(pk.prev))
	c.ptr = append([]uint64(nil), pk.ptr...)
	c.cov = append([]uint64(nil), pk.cov...)
	c.rl, c.held = nil, nil
	c.base = append([]uint64(nil), pk.base...)
	c.basePtr = append([]uint64(nil), pk.basePtr...)
	return &c
}

// pack builds the packed state from the flat arrays, which must be current,
// and makes it the base.
func (st *State) pack(ring bool) {
	n := st.N
	var k, hi int64
	for _, m := range st.Agents[:n] {
		k += m
		hi = max(hi, m)
	}
	words := (n + 63) >> 6
	stride := bits.Len64(uint64(k)) + 1
	pk := st.pk
	if pk == nil || pk.stride != stride {
		pk = &packed{
			words:   words,
			top:     uint(n-1) & 63,
			stride:  stride,
			cnt:     make([]uint64, words*stride),
			prev:    make([]uint64, words*stride),
			ptr:     make([]uint64, words),
			cov:     make([]uint64, words),
			base:    make([]uint64, words*stride),
			basePtr: make([]uint64, words),
		}
		pk.last = ^uint64(0) >> (63 - pk.top)
		st.pk = pk
	}
	pk.planes = max(1, bits.Len64(uint64(hi)))
	pk.movers = 0
	pk.ring, pk.k = ring, k
	// n·k·rebase ≤ 2^62, or one round when n·k alone exceeds it.
	pk.rebase = max(1, 1<<62/int64(n)/max(k, 1))
	clear(pk.cnt)
	clear(pk.prev)
	for w := 0; w < words; w++ {
		c := pk.cnt[w*stride : w*stride+pk.planes]
		var p, cov uint64
		lo := w << 6
		for v := lo; v < min(lo+64, n); v++ {
			j := uint(v - lo)
			m := uint64(st.Agents[v])
			for i := range c {
				c[i] |= (m >> i & 1) << j
			}
			p |= uint64(st.Ptr[v]&1) << j
			if st.Visits[v] != 0 {
				cov |= 1 << j
			}
		}
		pk.ptr[w], pk.cov[w] = p, cov
	}
	pk.rebaseNow()
	st.pkOn = true
}

// runPacked advances fully-active packed rounds until round end or, with
// cover set, until every node has been visited.
func (st *State) runPacked(ring bool, end int64, cover bool) {
	for st.Round < end && !(cover && st.Covered == st.N) {
		st.stepPacked(ring, nil)
	}
}

// stepPacked runs one round on the packed state, packing the flat arrays
// first when the previous round was not packed. With hold nil every agent
// moves; otherwise hold(v, c), clamped to [0, c], of the c agents at each
// occupied node v sit the round out: their planes leave the counts before
// the round (subtractHeld) and rejoin the arrivals after it (addHeld).
func (st *State) stepPacked(ring bool, hold func(v int, c int64) int64) {
	if !st.Packed() {
		st.pack(ring)
	}
	pk := st.pk
	planes, stale := pk.planes, pk.movers
	var held int64
	if hold != nil {
		held = pk.subtractHeld(hold)
	}
	b := pk.planes
	full := st.Covered == st.N
	var newly int
	var topOr, carryOr uint64
	switch {
	case b == 1:
		newly, topOr, carryOr = pk.round1(ring, full)
	case b <= 3 && pk.stride >= 4:
		newly, topOr, carryOr = pk.round3(ring, full)
	default:
		newly, topOr, carryOr = pk.round(ring, full)
	}

	pk.cnt, pk.prev = pk.prev, pk.cnt
	pk.movers = b
	switch {
	case held != 0:
		pk.addHeld(b, planes, stale)
	case carryOr != 0:
		pk.planes = b + 1
	case topOr == 0:
		// A node's ⌈m/2⌉ lands on one neighbour, so the highest count
		// loses at most one bit a round.
		pk.planes = b - 1
	}
	round := st.Round + 1
	if !full {
		st.Covered += newly
		if st.Covered == st.N {
			st.CoverRound = round
		}
	}
	st.Round = round
	if held == 0 {
		st.FullyActiveRounds++
	}
	st.stale = true
	pk.moves += pk.k - held
	if pk.rounds++; pk.rounds == pk.rebase {
		st.Materialize()
	}
}

// subtractHeld asks hold for the held agents of every occupied node, in
// node order, with the node's count, decoding each word's counts once.
// It keeps the clamped held counts in pk.held and subtracts them from the
// counts, which become the round's movers, and sets pk.planes to the
// movers' plane count. It returns the number of agents held.
func (pk *packed) subtractHeld(hold func(v int, c int64) int64) (held int64) {
	stride, planes := pk.stride, pk.planes
	if len(pk.held) != len(pk.cnt) {
		pk.held = make([]uint64, len(pk.cnt))
	}
	b := 1
	var c [64]int64 // the word's counts, zero again once asked
	for w := 0; w < pk.words; w++ {
		o := w * stride
		cw, hw := pk.cnt[o:o+planes], pk.held[o:o+planes]
		clear(hw)
		var occ uint64
		for i, x := range cw {
			occ |= x
			for ; x != 0; x &= x - 1 {
				c[bits.TrailingZeros64(x)] |= 1 << i
			}
		}
		var wordHeld int64
		for ; occ != 0; occ &= occ - 1 {
			j := bits.TrailingZeros64(occ)
			m := c[j]
			c[j] = 0
			h := min(max(hold(w<<6|j, m), 0), m)
			for x := uint64(h); x != 0; x &= x - 1 {
				hw[bits.TrailingZeros64(x)] |= 1 << j
			}
			wordHeld += h
		}
		if wordHeld != 0 {
			held += wordHeld
			var borrow uint64
			for i, y := range hw {
				x := cw[i]
				cw[i] = x ^ y ^ borrow
				borrow = ^x&(y|borrow) | x&y&borrow
			}
		}
		for i := planes - 1; i >= b; i-- {
			if cw[i] != 0 {
				b = i + 1
				break
			}
		}
	}
	pk.planes = b
	return held
}

// addHeld adds the held counts back to the arrivals of a held round whose
// movers had b planes, taken from counts of planes planes, and recounts the
// planes. The round wrote the arrivals' b + 1 planes over the previous
// movers, which had stale planes; a held round's planes can drop by more
// than one, so the planes above the arrivals are cleared first.
func (pk *packed) addHeld(b, planes, stale int) {
	stride := pk.stride
	// Every count is at most k < 2^(stride−1), so the sums fit in lim
	// planes.
	lim := min(stride, max(b+1, planes)+1)
	top := 1
	for w := 0; w < pk.words; w++ {
		o := w * stride
		if stale > b+1 {
			clear(pk.cnt[o+b+1 : o+stale])
		}
		cw, hw := pk.cnt[o:o+lim], pk.held[o:o+planes]
		var carry uint64
		for i, y := range hw {
			x := cw[i]
			cw[i] = x ^ y ^ carry
			carry = x&y | carry&(x^y)
		}
		for i := planes; carry != 0; i++ {
			cw[i], carry = cw[i]^carry, cw[i]&carry
		}
		for i := lim - 1; i >= top; i-- {
			if cw[i] != 0 {
				top = i + 1
				break
			}
		}
	}
	pk.planes = top
}

// round computes the next counts of any plane count b = pk.planes into
// pk.prev, b+1 planes a word, flips the pointers and, unless full, adds the
// new counts to the covered plane. It returns the newly covered nodes and,
// ORed over all words, the new counts' plane b−1 and carry plane b.
func (pk *packed) round(ring, full bool) (newly int, topOr, carryOr uint64) {
	words, stride, b := pk.words, pk.stride, pk.planes
	cnt, out, ptr, rl := pk.cnt, pk.prev, pk.ptr, pk.scratch()
	lastW := words - 1
	top := pk.top

	// Pass 1: the right- and left-going planes of every word, and the
	// pointer flips.
	for w := 0; w < words; w++ {
		c := cnt[w*stride : w*stride+b]
		r := rl[2*w*stride : 2*w*stride+b]
		l := rl[(2*w+1)*stride : (2*w+1)*stride+b]
		p := ptr[w]
		odd := c[0]
		// x is the odd node's extra agent to the right, y to the left.
		x, y := odd&^p, odd&p
		if !ring {
			x, y = y, x
		}
		// R = ⌊m/2⌋ + x and L = ⌊m/2⌋ + y, rippling the carries up; both
		// fit in b planes, since ⌊m/2⌋ + 1 ≤ 2^(b−1).
		for i := 0; i < b-1; i++ {
			h := c[i+1]
			r[i], x = h^x, h&x
			l[i], y = h^y, h&y
		}
		r[b-1], l[b-1] = x, y
		if ring {
			ptr[w] = p ^ odd
			continue
		}
		// Path endpoints: node 0 sends all its agents right and node n−1
		// all its agents left, and their pointers stay 0.
		flip := odd
		if w == 0 {
			flip &^= 1
			for i := range c {
				r[i] = r[i]&^1 | c[i]&1
				l[i] &^= 1
			}
		}
		if w == lastW {
			flip &^= 1 << top
			for i := range c {
				r[i] &^= 1 << top
				l[i] = l[i]&^(1<<top) | c[i]&(1<<top)
			}
		}
		ptr[w] = p ^ flip
	}

	// Pass 2: new counts = R shifted one node up + L shifted one node
	// down. On the ring node 0 receives node n−1's R and node n−1 node 0's
	// L.
	zero := rl[2*words*stride:]
	for w := 0; w < words; w++ {
		rw := rl[2*w*stride : 2*w*stride+b]
		lw := rl[(2*w+1)*stride : (2*w+1)*stride+b]
		// The planes whose edge bits shift in: zeros at the path's ends.
		rp, ln := zero, zero
		rs, lshift := uint(63), uint(63)
		switch {
		case w > 0:
			rp = rl[2*(w-1)*stride:]
		case ring:
			rp, rs = rl[2*lastW*stride:], top
		}
		switch {
		case w < lastW:
			ln = rl[(2*w+3)*stride:]
		case ring:
			ln, lshift = rl[stride:], top
		}
		mask := ^uint64(0)
		if w == lastW {
			mask = pk.last
		}
		rp, ln = rp[:b], ln[:b]
		o := out[w*stride : w*stride+b+1]
		var carry, occ uint64
		for i := range rw {
			xr := (rw[i]<<1 | rp[i]>>rs&1) & mask
			yl := lw[i]>>1 | (ln[i]&1)<<lshift
			s := xr ^ yl
			o[i] = s ^ carry
			carry = xr&yl | carry&s
			occ |= o[i]
		}
		o[b] = carry
		occ |= carry
		topOr |= o[b-1]
		carryOr |= carry
		if !full {
			newly += bits.OnesCount64(occ &^ pk.cov[w])
			pk.cov[w] |= occ
		}
	}
	return newly, topOr, carryOr
}

// scratch returns the round scratch rl, allocating it on first use.
func (pk *packed) scratch() []uint64 {
	if len(pk.rl) != (2*pk.words+1)*pk.stride {
		pk.rl = make([]uint64, (2*pk.words+1)*pk.stride)
	}
	return pk.rl
}

// round1 is round for counts of at most 1 (one plane), the commonest case
// at k ≤ n/8: R and L are single planes, computed in a first pass into the
// round scratch, and the second pass adds them shifted. It relies on plane
// 1 being zero.
func (pk *packed) round1(ring, full bool) (newly int, topOr, carryOr uint64) {
	words, stride, lastW, top := pk.words, pk.stride, pk.words-1, pk.top
	cnt, out, ptr, cov := pk.cnt, pk.prev, pk.ptr, pk.cov
	rs, ls := pk.scratch()[:words], pk.rl[words:2*words]

	// flip turns the pointer plane into the plane of nodes whose odd agent
	// goes right: the ring's port 0 points right, the path's left.
	var flip uint64
	if ring {
		flip = ^uint64(0)
	}
	for w := range rs {
		c := cnt[w*stride]
		q := ptr[w] ^ flip
		rs[w], ls[w] = c&q, c&^q
		ptr[w] ^= c
	}
	if !ring {
		// Node 0 sends right and node n−1 left; their pointers stay 0.
		c := cnt[0] & 1
		rs[0], ls[0], ptr[0] = rs[0]&^1|c, ls[0]&^1, ptr[0]^c
		t := uint64(1) << top
		c = cnt[lastW*stride] & t
		rs[lastW], ls[lastW], ptr[lastW] = rs[lastW]&^t, ls[lastW]&^t|c, ptr[lastW]^c
	}

	// ri is the R bit entering word w from node 64w−1. On the ring word 0
	// takes node n−1's, and the last word node 0's L bit (wrap).
	var ri, wrap uint64
	if ring {
		ri, wrap = rs[lastW]>>top&1, (ls[0]&1)<<top
	}
	for w, ow := 0, 0; w < words; w, ow = w+1, ow+stride {
		r := rs[w]
		x := r<<1 | ri
		ri = r >> 63
		y := ls[w] >> 1
		if w < lastW {
			y |= ls[w+1] << 63
		} else {
			x &= pk.last
			y |= wrap
		}
		s0, s1 := x^y, x&y
		o := out[ow : ow+2]
		o[0], o[1] = s0, s1
		topOr |= s0
		carryOr |= s1
		if !full {
			occ := s0 | s1
			newly += bits.OnesCount64(occ &^ cov[w])
			cov[w] |= occ
		}
	}
	return newly, topOr, carryOr
}

// round3 is round for counts below 8 (b ≤ 3 planes), with each word's
// planes in registers instead of the scratch planes: the bits that shift
// in from the neighbouring words are one node's share each, computed as a
// scalar. It relies on the planes from b up being zero, which every round
// keeps, and on a stride of at least 4.
func (pk *packed) round3(ring, full bool) (newly int, topOr, carryOr uint64) {
	words, stride, lastW, top, b := pk.words, pk.stride, pk.words-1, pk.top, pk.planes
	cnt, out, ptr, cov := pk.cnt, pk.prev, pk.ptr, pk.cov

	// ri is the R share entering word w from node 64w−1, li the L share
	// entering from node 64w+64. On the ring, word 0 takes node n−1's R
	// and the last word node 0's L (first), both read before any pointer
	// flips.
	var ri, first uint64
	left := uint64(0) // share3's port for L
	if !ring {
		left = 1
	}
	if ring {
		ri = pk.share3(lastW<<6|int(top), 1)
		first = pk.share3(0, 0)
	}
	for w := 0; w < words; w++ {
		c := cnt[w*stride : w*stride+3]
		var r0, r1, r2, l0, l1, l2, f uint64
		if ring || w > 0 && w < lastW {
			// The path's interior ports are the ring's swapped.
			p := ptr[w]
			if !ring {
				p = ^p
			}
			r0, r1, r2, l0, l1, l2 = split3(c[0], c[1], c[2], p)
			f = c[0]
		} else {
			r0, r1, r2, l0, l1, l2, f = pk.pathEnd3(w)
		}

		mask, sh := ^uint64(0), uint(63)
		var li uint64
		switch {
		case w < lastW && (ring || w+1 < lastW || top > 0):
			li = pk.share3((w+1)<<6, left)
		case w < lastW:
			// The path's last node, alone in its word, sends all left.
			d := cnt[lastW*stride : lastW*stride+3]
			li = d[0]&1 | (d[1]&1)<<1 | (d[2]&1)<<2
		case ring:
			li, mask, sh = first, pk.last, top
		default:
			mask = pk.last
		}
		ptr[w] ^= f

		// The new counts s = x + y, three planes and a carry c.
		x0 := (r0<<1 | ri&1) & mask
		x1 := (r1<<1 | ri>>1&1) & mask
		x2 := (r2<<1 | ri>>2) & mask
		y0 := l0>>1 | (li&1)<<sh
		y1 := l1>>1 | (li>>1&1)<<sh
		y2 := l2>>1 | (li>>2)<<sh
		ri = r0>>63 | r1>>63<<1 | r2>>63<<2
		s0 := x0 ^ y0
		cy := x0 & y0
		t := x1 ^ y1
		s1 := t ^ cy
		cy = x1&y1 | cy&t
		t = x2 ^ y2
		s2 := t ^ cy
		cy = x2&y2 | cy&t
		o := out[w*stride : w*stride+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, cy
		topOr |= o[b-1]
		carryOr |= o[b]
		if !full {
			occ := s0 | s1 | s2 | cy
			newly += bits.OnesCount64(occ &^ cov[w])
			cov[w] |= occ
		}
	}
	return newly, topOr, carryOr
}

// share3 returns how many of node v's agents, fewer than 8, a round sends
// through the port that extra's bit 0 marks, with v's pointer before the
// round: extra 1 is the ring's right and the path's left, 0 the others. v
// must not be a path endpoint.
func (pk *packed) share3(v int, extra uint64) uint64 {
	c := pk.cnt[v>>6*pk.stride:]
	j := uint(v & 63)
	m := c[0]>>j&1 | (c[1]>>j&1)<<1 | (c[2]>>j&1)<<2
	return m>>1 + m&(pk.ptr[v>>6]>>j^extra)&1
}

// split3 returns the ring's right- and left-going planes of one word of
// counts below 8 (planes c0, c1, c2) under the pointer plane p; the path's
// interior, whose ports are the ring's swapped, passes ^p.
func split3(c0, c1, c2, p uint64) (r0, r1, r2, l0, l1, l2 uint64) {
	x, y := c0&^p, c0&p
	r0, x = c1^x, c1&x
	r1, r2 = c2^x, c2&x
	l0, y = c1^y, c1&y
	l1, l2 = c2^y, c2&y
	return
}

// pathEnd3 is split3 for a path word holding an endpoint, w = 0 or the
// last word, with its pointer flips: node 0 sends all its agents right and
// node n−1 all its agents left, and their pointers stay 0.
func (pk *packed) pathEnd3(w int) (r0, r1, r2, l0, l1, l2, flip uint64) {
	c := pk.cnt[w*pk.stride : w*pk.stride+3]
	c0, c1, c2 := c[0], c[1], c[2]
	r0, r1, r2, l0, l1, l2 = split3(c0, c1, c2, ^pk.ptr[w])
	flip = c0
	if w == 0 {
		r0, r1, r2 = r0&^1|c0&1, r1&^1|c1&1, r2&^1|c2&1
		l0, l1, l2 = l0&^1, l1&^1, l2&^1
		flip &^= 1
	}
	if w == pk.words-1 {
		m := uint64(1) << pk.top
		r0, r1, r2 = r0&^m, r1&^m, r2&^m
		l0, l1, l2 = l0&^m|c0&m, l1&^m|c1&m, l2&^m|c2&m
		flip &^= m
	}
	return
}
