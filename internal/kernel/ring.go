package kernel

// The tier-1 ring and path kernels. Fully-active and held rounds alike run
// bit-sliced on the packed state (packed.go), 64 nodes per machine word.
//
// Degree-2 split law (the paper's round rule specialized to d = 2): the m
// agents leaving v use ports p, p+1, …, p+m-1 (mod 2), so port p carries
// ⌈m/2⌉, the other port ⌊m/2⌋, and the pointer ends at (p+m) mod 2.

// ringStepper is the tier-1 kernel for graph.Ring topologies.
type ringStepper struct{}

func (ringStepper) Name() string { return "ring" }

func (ringStepper) Step(st *State) { st.stepPacked(true, nil) }

func (ringStepper) Run(st *State, end int64, cover bool) { st.runPacked(true, end, cover) }

func (ringStepper) StepHeld(st *State, hold func(v int, c int64) int64) { st.stepPacked(true, hold) }

// pathStepper is the tier-1 kernel for graph.Path topologies. Interior
// nodes have port 0 → v-1 and port 1 → v+1; the endpoints have a single
// port whose pointer never moves ((p+m) mod 1 = 0).
type pathStepper struct{}

func (pathStepper) Name() string { return "path" }

func (pathStepper) Step(st *State) { st.stepPacked(false, nil) }

func (pathStepper) Run(st *State, end int64, cover bool) { st.runPacked(false, end, cover) }

func (pathStepper) StepHeld(st *State, hold func(v int, c int64) int64) { st.stepPacked(false, hold) }
