package kernel

import (
	"testing"

	"rotorring/internal/xrand"
)

// benchState builds a dense random configuration on n nodes with k agents,
// the regime the flat kernels are selected for.
func benchState(n int, k int64) (State, []int64) {
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
	held := make([]int64, n)
	for v := 0; v < n; v++ {
		if st.Agents[v] > 0 {
			held[v] = st.Agents[v] / 4
		}
	}
	return st, held
}

func BenchmarkRingStep(b *testing.B) {
	st, _ := benchState(1<<16, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringStepper{}.Step(&st)
	}
}

func BenchmarkRingStepHeld(b *testing.B) {
	st, held := benchState(1<<16, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ringStepper{}.StepHeld(&st, held)
	}
}

func BenchmarkPathStepHeld(b *testing.B) {
	st, held := benchState(1<<16, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pathStepper{}.StepHeld(&st, held)
	}
}
