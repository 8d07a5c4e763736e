package core

import (
	"errors"
	"fmt"

	"rotorring/internal/graph"
)

// This file is the mutation surface perturbation scenarios drive (the
// engine's schedule subsystem): topology swaps after edge failure/repair,
// agent churn, pointer resets, and coverage-epoch resets. Every mutation
// happens between rounds, keeps the configuration consistent (occupied
// list, visit counters, incremental hash), and re-evaluates the
// specialized-kernel choice, so stepping stays bit-identical to the generic
// engine before and after the event.

// Pointers returns a copy of the current port pointers.
func (s *System) Pointers() []int {
	out := make([]int, s.n)
	for v := range out {
		out[v] = int(s.st.Ptr[v])
	}
	return out
}

// Rewire swaps the topology under the running system — the edge-failure /
// repair primitive. ng must have the same node set; pointers is the full
// new pointer vector (the caller transplants the old pointers through the
// port mapping, e.g. graph.MaskEdges' toOld). Agents, visit counters and
// the round clock carry over; the flow view empties. The specialized
// kernel is re-selected for the new shape: a cut ring falls back to the
// generic engine, a repaired one re-specializes. Reset returns to the
// construction-time topology.
func (s *System) Rewire(ng *graph.Graph, pointers []int) error {
	if ng.NumNodes() != s.n {
		return fmt.Errorf("core: Rewire changes the node count (%d -> %d)", s.n, ng.NumNodes())
	}
	if len(pointers) != s.n {
		return fmt.Errorf("core: %d pointers for %d nodes", len(pointers), s.n)
	}
	for v, p := range pointers {
		if p < 0 || p >= ng.Degree(v) {
			return fmt.Errorf("core: pointer %d invalid at node %d (degree %d)", p, v, ng.Degree(v))
		}
	}
	s.g = ng
	for v, p := range pointers {
		s.st.Ptr[v] = int32(p)
	}
	s.movers = moversNone
	s.reselectKernel()
	s.rehash()
	return nil
}

// AddAgents places one new agent on each listed node mid-run (the churn
// "join" primitive). Arrivals count as visits, exactly like initial
// placement, so joining agents can cover fresh nodes. The initial
// configuration (Reset target) is unchanged.
func (s *System) AddAgents(positions ...int) error {
	for _, v := range positions {
		if v < 0 || v >= s.n {
			return fmt.Errorf("core: agent position %d out of range [0,%d)", v, s.n)
		}
	}
	s.ensureOccupied()
	for _, v := range positions {
		c := s.st.Agents[v]
		if s.hashOn {
			s.hash += hashCnt(v, c+1) - hashCnt(v, c)
		}
		s.st.Agents[v] = c + 1
		s.k++
		if c == 0 && !s.inOcc[v] {
			s.inOcc[v] = true
			s.occupied = append(s.occupied, v)
		}
		if s.st.Visits[v] == 0 {
			s.coverAt(s.st.Round)
		}
		s.st.Visits[v]++
	}
	s.reselectKernel()
	return nil
}

// RemoveAgents removes one agent from each listed node mid-run (the churn
// "leave" primitive). Every listed node must currently hold an agent, and
// at least one agent must remain in the system afterwards.
func (s *System) RemoveAgents(positions ...int) error {
	if int64(len(positions)) >= s.k {
		return errors.New("core: RemoveAgents would leave no agents")
	}
	remove := func(v int) {
		c := s.st.Agents[v]
		if s.hashOn {
			s.hash += hashCnt(v, c-1) - hashCnt(v, c)
		}
		s.st.Agents[v] = c - 1
		s.k--
	}
	for i, v := range positions {
		if v < 0 || v >= s.n || s.st.Agents[v] == 0 {
			// Roll back the removals already applied (repeated positions are
			// legal while agents last), leaving the system unchanged.
			for _, u := range positions[:i] {
				c := s.st.Agents[u]
				if s.hashOn {
					s.hash += hashCnt(u, c+1) - hashCnt(u, c)
				}
				s.st.Agents[u] = c + 1
				s.k++
			}
			return fmt.Errorf("core: no agent to remove at node %d", v)
		}
		remove(v)
	}
	// Emptied nodes are dropped lazily: the occupied list may briefly hold
	// nodes with zero agents, which every consumer already tolerates by
	// re-checking the count.
	s.occValid = false
	s.reselectKernel()
	return nil
}

// SetPointers overwrites every port pointer mid-run (the rotor-reset
// perturbation) and empties the flow view. The initial configuration
// (Reset target) is unchanged.
func (s *System) SetPointers(pointers []int) error {
	if len(pointers) != s.n {
		return fmt.Errorf("core: %d pointers for %d nodes", len(pointers), s.n)
	}
	for v, p := range pointers {
		if p < 0 || p >= s.g.Degree(v) {
			return fmt.Errorf("core: pointer %d invalid at node %d (degree %d)", p, v, s.g.Degree(v))
		}
	}
	for v, p := range pointers {
		s.st.Ptr[v] = int32(p)
	}
	s.movers = moversNone
	s.rehash()
	return nil
}

// ResetCoverage starts a fresh coverage epoch at the current round: visit
// counters and cover bookkeeping restart as if the current agent positions
// were an initial placement, while positions, pointers and the round clock
// are untouched. Re-coverage measurements after a perturbation
// (cover-after-fault) are built on it.
func (s *System) ResetCoverage() {
	s.st.Covered = 0
	s.st.CoverRound = -1
	for v, a := range s.st.Agents {
		s.st.Visits[v] = a
		if a > 0 {
			s.st.Covered++
		}
	}
	if s.st.Covered == s.n {
		s.st.CoverRound = s.st.Round
	}
}
