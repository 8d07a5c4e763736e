package kernel

import (
	"testing"

	"rotorring/internal/xrand"
)

// benchState builds a random configuration on n nodes with k agents.
func benchState(n int, k int64) State {
	st := NewState(n)
	rng := xrand.New(1)
	for i := int64(0); i < k; i++ {
		v := rng.Intn(n)
		st.Agents[v]++
		if st.Visits[v] == 0 {
			st.Covered++
		}
		st.Visits[v]++
	}
	for v := 0; v < n; v++ {
		st.Ptr[v] = int32(rng.Intn(2))
	}
	return st
}

// quarter holds a quarter of every node's agents, as a delay:p=0.25 round
// holds on average.
func quarter(_ int, c int64) int64 { return c / 4 }

// BenchmarkRingStep times steady-state packed ring rounds: the first
// rounds pack the flat arrays and spread the random start out, and the
// timed ones run on the packed state.
func BenchmarkRingStep(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		k    int64
	}{{"n=512,k=64", 512, 64}, {"n=2^16,k=2^15", 1 << 16, 1 << 15}} {
		b.Run(c.name, func(b *testing.B) {
			st := benchState(c.n, c.k)
			for i := 0; i < 256; i++ {
				ringStepper{}.Step(&st)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ringStepper{}.Step(&st)
			}
		})
	}
}

// BenchmarkRingStepHeld and BenchmarkPathStepHeld time packed held rounds
// on a dense random start.
func BenchmarkRingStepHeld(b *testing.B) {
	st := benchState(1<<16, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringStepper{}.StepHeld(&st, quarter)
	}
}

func BenchmarkPathStepHeld(b *testing.B) {
	st := benchState(1<<16, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pathStepper{}.StepHeld(&st, quarter)
	}
}
