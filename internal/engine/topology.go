package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rotorring/internal/graph"
	"rotorring/internal/xrand"
)

// This file is the engine's topology registry, the third registry next to
// processes and metrics (process.go): sweeps name their graph families as
// parameterized spec strings, and the registry supplies the parser and the
// deterministic builder, so a new graph family plugs in with one
// RegisterTopology call — no engine edits, no new spec fields.
//
// Spec grammar (case-insensitive, canonicalized to lower case):
//
//	spec    = family [":" params]
//	params  = int {"x" int}          // family-specific arity
//	        | spec                    // for wrapper families (shuffled)
//
// A spec is either AXIS-SIZED — it takes its size parameter n from the
// sweep's Sizes axis ("ring", "grid", "rr:3") — or SELF-SIZED — its
// parameters fully determine the graph ("ring:1024", "grid:64x32",
// "rr:3x512"), in which case the Sizes axis does not apply to it and the
// cell's n column reports the implied size. ParseTopo canonicalizes
// ("grid:5" -> "grid:5x5") and the canonical form re-parses to itself.

// Topo is one parameterized topology spec in a sweep, e.g. "ring",
// "grid:64x32", "torus:128x8", "rr:3", "shuffled:grid:8x8". Use ParseTopo
// to validate and canonicalize one.
type Topo string

func (t Topo) String() string { return string(t) }

// TopologyDef describes one registered graph family. Parse must be cheap
// (no graph construction) — specs are validated eagerly, before any sweep
// worker starts. Build must be deterministic given (params, n, seed): the
// engine's bit-reproducibility across worker counts rests on it.
type TopologyDef struct {
	// Name is the registry key and the spec's family prefix, as it appears
	// in SweepSpec.Topologies, rows and CLI flags.
	Name string
	// Seeded reports whether Build consumes the seed (random-regular,
	// port-shuffled families). Seeded families get a per-cell graph seed
	// derived from the sweep's base seed; unseeded ones always get 0.
	Seeded bool
	// Parse validates the spec's parameter string (the part after
	// "name:", empty when absent) without constructing anything. It
	// returns the canonical parameter string and the implied size: 0 when
	// the spec consumes the sweep's size axis, the resolved size parameter
	// when the params fully determine the graph.
	Parse func(params string) (canonical string, size int, err error)
	// Resolve returns the parameter string of the self-sized instance the
	// axis-sized params build at size n, such that "name:" + Resolve(...)
	// re-parses to a self-sized spec of the same graph. It is only called
	// with canonical params whose Parse returned size 0.
	Resolve func(params string, n int) string
	// Build constructs the instance for canonical params at size n
	// (ignored when the params are self-sized) from seed (ignored unless
	// Seeded). Constructor panics are converted to errors by the engine.
	Build func(params string, n int, seed uint64) (*graph.Graph, error)
}

var (
	topologyMu sync.RWMutex
	topologies = map[string]*TopologyDef{}
)

// RegisterTopology adds a graph family to the registry. Names are
// normalized to lower case (specs lowercase their input before lookup);
// duplicate names panic: family names appear in specs, rows and derived
// file formats and must stay unambiguous.
func RegisterTopology(d *TopologyDef) {
	if d.Name == "" || d.Parse == nil || d.Build == nil {
		panic("engine: RegisterTopology needs a name, a parser and a builder")
	}
	d.Name = strings.ToLower(d.Name)
	if strings.ContainsAny(d.Name, ": \t\n") {
		panic(fmt.Sprintf("engine: topology name %q may not contain ':' or spaces", d.Name))
	}
	topologyMu.Lock()
	defer topologyMu.Unlock()
	if _, dup := topologies[d.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate topology %q", d.Name))
	}
	topologies[d.Name] = d
}

// LookupTopology returns a registered family by name.
func LookupTopology(name string) (*TopologyDef, bool) {
	topologyMu.RLock()
	defer topologyMu.RUnlock()
	d, ok := topologies[name]
	return d, ok
}

// TopologyNames lists the registered family names, sorted.
func TopologyNames() []string {
	topologyMu.RLock()
	defer topologyMu.RUnlock()
	names := make([]string, 0, len(topologies))
	for n := range topologies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// topoInstance is the parsed form of one topology spec.
type topoInstance struct {
	def       *TopologyDef
	canonical string // canonical spec string ("grid:64x32")
	params    string // canonical parameter string ("64x32", "" when none)
	size      int    // implied size for self-sized specs; 0 = axis-sized
}

// spec assembles the canonical spec string for a family and params.
func specString(name, params string) string {
	if params == "" {
		return name
	}
	return name + ":" + params
}

// parseTopo parses and validates one spec string against the registry.
func parseTopo(s string) (topoInstance, error) {
	str := strings.ToLower(strings.TrimSpace(s))
	name, params, _ := strings.Cut(str, ":")
	name = strings.TrimSpace(name)
	def, ok := LookupTopology(name)
	if !ok {
		return topoInstance{}, fmt.Errorf("engine: unknown topology %q (registered: %s)",
			name, strings.Join(TopologyNames(), "|"))
	}
	canon, size, err := def.Parse(strings.TrimSpace(params))
	if err != nil {
		return topoInstance{}, fmt.Errorf("engine: topology %q: %w", str, err)
	}
	if size == 0 && def.Resolve == nil {
		// Catch the misregistration at spec validation, not as a panic in
		// expand: an axis-sized spec needs Resolve to name its instances.
		return topoInstance{}, fmt.Errorf("engine: topology %q: family %q is axis-sized but registered without a Resolve function", str, def.Name)
	}
	return topoInstance{
		def:       def,
		canonical: specString(def.Name, canon),
		params:    canon,
		size:      size,
	}, nil
}

// resolved returns the self-sized canonical spec of the instance at size n
// — the string that re-parses to exactly this graph shape. For self-sized
// specs it is the canonical spec itself.
func (ti topoInstance) resolved(n int) string {
	if ti.size != 0 {
		return ti.canonical
	}
	return specString(ti.def.Name, ti.def.Resolve(ti.params, n))
}

// ParseTopo validates a topology spec string and returns its canonical
// form. The canonical form re-parses to itself.
func ParseTopo(s string) (Topo, error) {
	inst, err := parseTopo(s)
	if err != nil {
		return "", err
	}
	return Topo(inst.canonical), nil
}

// GraphSeed derives the seed a sweep with the given base seed builds the
// graph of cell (spec, n) from. It hashes only the resolved instance spec
// (which is self-sized, so it fully identifies the graph shape): spelling
// variants of one instance ("rr:3" at n=512 and "rr:3x512") share one
// graph, and the agent count, placement, pointer and replica coordinates
// deliberately stay out, so every cell of one (topology, size) shares one
// graph too. Unseeded families ignore the seed entirely.
func GraphSeed(base uint64, t Topo, n int) (uint64, error) {
	inst, err := parseTopo(string(t))
	if err != nil {
		return 0, err
	}
	return graphSeedOf(base, inst.resolved(n)), nil
}

// graphSeedOf derives the graph seed from the base seed and a resolved
// instance spec.
func graphSeedOf(base uint64, resolvedSpec string) uint64 {
	return DeriveSeed(base, hashString("graph"), hashString(resolvedSpec))
}

// buildInstance runs a family builder, converting constructor panics
// (e.g. Ring(2)) to errors so sweeps and CLI runs fail gracefully instead
// of crashing a worker.
func buildInstance(inst topoInstance, n int, seed uint64) (g *graph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("engine: %s(%d): %v", inst.canonical, n, r)
		}
	}()
	if inst.size != 0 {
		n = inst.size
	}
	return inst.def.Build(inst.params, n, seed)
}

// BuildTopo constructs a topology spec at size n (ignored for self-sized
// specs) with the given graph seed (ignored for unseeded families; sweeps
// derive theirs with GraphSeed).
func BuildTopo(t Topo, n int, seed uint64) (*graph.Graph, error) {
	inst, err := parseTopo(string(t))
	if err != nil {
		return nil, err
	}
	return buildInstance(inst, n, seed)
}

// --- spec-string parsing helpers -----------------------------------------

// maxDim bounds every parsed spec parameter (and every implied size), so
// the implied-size arithmetic below (w*h, clique+tail, n*d checks) cannot
// overflow and absurd sizes fail at parse time, not at build time.
const maxDim = 1 << 30

// parseDims parses an "AxBxC" positive-integer list.
func parseDims(params string) ([]int, error) {
	parts := strings.Split(params, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad parameter %q (want positive integers separated by 'x')", p)
		}
		if v > maxDim {
			return nil, fmt.Errorf("parameter %d exceeds the maximum %d", v, maxDim)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

// dimsString is the inverse of parseDims.
func dimsString(dims ...int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// arity validates a parsed parameter count against the allowed set.
func arity(dims []int, want ...int) error {
	for _, w := range want {
		if len(dims) == w {
			return nil
		}
	}
	return fmt.Errorf("got %d parameters, want %v", len(dims), want)
}

// --- built-in families ----------------------------------------------------

// sizedFamily registers a one-parameter family: axis-sized with no params
// ("ring"), self-sized with an explicit size ("ring:1024"). min/max bound
// the explicit size at parse time; axis sizes surface builder errors as
// per-job rows instead.
func sizedFamily(name string, min, max int, build func(n int) *graph.Graph) *TopologyDef {
	return &TopologyDef{
		Name: name,
		Parse: func(params string) (string, int, error) {
			if params == "" {
				return "", 0, nil
			}
			dims, err := parseDims(params)
			if err != nil {
				return "", 0, err
			}
			if err := arity(dims, 1); err != nil {
				return "", 0, err
			}
			if n := dims[0]; n < min || n > max {
				return "", 0, fmt.Errorf("size %d out of range [%d,%d]", n, min, max)
			}
			return dimsString(dims...), dims[0], nil
		},
		Resolve: func(_ string, n int) string { return strconv.Itoa(n) },
		Build:   func(_ string, n int, _ uint64) (*graph.Graph, error) { return build(n), nil },
	}
}

// dims2Family registers a two-dimensional family: "grid" (n x n from the
// size axis), "grid:64" (64 x 64, self-sized), "grid:64x32" (self-sized).
// The implied size of a self-sized spec is its node count w*h.
func dims2Family(name string, minSide int, build func(w, h int) *graph.Graph) *TopologyDef {
	return &TopologyDef{
		Name: name,
		Parse: func(params string) (string, int, error) {
			if params == "" {
				return "", 0, nil
			}
			dims, err := parseDims(params)
			if err != nil {
				return "", 0, err
			}
			if err := arity(dims, 1, 2); err != nil {
				return "", 0, err
			}
			w := dims[0]
			h := w
			if len(dims) == 2 {
				h = dims[1]
			}
			if w < minSide || h < minSide {
				return "", 0, fmt.Errorf("side %dx%d below minimum %d", w, h, minSide)
			}
			// Widen before multiplying: w, h <= maxDim, so the int64
			// product cannot overflow even where int is 32 bits — and the
			// node count itself must stay addressable too.
			nodes := int64(w) * int64(h)
			if nodes < 2 {
				return "", 0, fmt.Errorf("%dx%d has fewer than 2 nodes", w, h)
			}
			if nodes > maxDim {
				return "", 0, fmt.Errorf("%dx%d exceeds %d nodes", w, h, maxDim)
			}
			return dimsString(w, h), int(nodes), nil
		},
		Resolve: func(_ string, n int) string { return dimsString(n, n) },
		Build: func(params string, n int, _ uint64) (*graph.Graph, error) {
			w, h := n, n
			if params != "" {
				dims, err := parseDims(params)
				if err != nil {
					return nil, err
				}
				w, h = dims[0], dims[1]
			}
			return build(w, h), nil
		},
	}
}

// rrDef is the seeded random-regular family: "rr:<d>" (degree d, n nodes
// from the size axis) or "rr:<d>x<n>" (self-sized). The graph is generated
// by the configuration model from the per-cell graph seed, so rows are
// reproducible from the sweep seed alone.
func rrDef() *TopologyDef {
	return &TopologyDef{
		Name:   "rr",
		Seeded: true,
		Parse: func(params string) (string, int, error) {
			if params == "" {
				return "", 0, fmt.Errorf("rr needs a degree (rr:<d> or rr:<d>x<n>)")
			}
			dims, err := parseDims(params)
			if err != nil {
				return "", 0, err
			}
			if err := arity(dims, 1, 2); err != nil {
				return "", 0, err
			}
			d := dims[0]
			if d < 2 {
				return "", 0, fmt.Errorf("degree %d < 2", d)
			}
			if len(dims) == 1 {
				return dimsString(d), 0, nil
			}
			n := dims[1]
			// Widened product: n*d can exceed a 32-bit int.
			if d >= n || int64(n)*int64(d)%2 != 0 {
				return "", 0, fmt.Errorf("rr:%dx%d needs d < n and n*d even", d, n)
			}
			return dimsString(d, n), n, nil
		},
		Resolve: func(params string, n int) string {
			dims, _ := parseDims(params)
			return dimsString(dims[0], n)
		},
		Build: func(params string, n int, seed uint64) (*graph.Graph, error) {
			dims, err := parseDims(params)
			if err != nil {
				return nil, err
			}
			if len(dims) == 2 {
				n = dims[1]
			}
			return graph.RandomRegular(n, dims[0], xrand.New(seed))
		},
	}
}

// lollipopDef is the lollipop family, always self-sized:
// "lollipop:<clique>x<tail>". Its implied size is the node count.
func lollipopDef() *TopologyDef {
	return &TopologyDef{
		Name: "lollipop",
		Parse: func(params string) (string, int, error) {
			if params == "" {
				return "", 0, fmt.Errorf("lollipop needs dimensions (lollipop:<clique>x<tail>)")
			}
			dims, err := parseDims(params)
			if err != nil {
				return "", 0, err
			}
			if err := arity(dims, 2); err != nil {
				return "", 0, err
			}
			if dims[0] < 2 {
				return "", 0, fmt.Errorf("clique size %d < 2", dims[0])
			}
			// Widened sum: cannot overflow 32-bit int before the cap check.
			if nodes := int64(dims[0]) + int64(dims[1]); nodes > maxDim {
				return "", 0, fmt.Errorf("%dx%d exceeds %d nodes", dims[0], dims[1], maxDim)
			}
			return dimsString(dims...), dims[0] + dims[1], nil
		},
		Build: func(params string, _ int, _ uint64) (*graph.Graph, error) {
			dims, err := parseDims(params)
			if err != nil {
				return nil, err
			}
			return graph.Lollipop(dims[0], dims[1]), nil
		},
	}
}

// shuffledDef is the seeded wrapper family "shuffled:<base-spec>": the base
// topology with every node's cyclic port order independently permuted from
// the graph seed. On degree-2 graphs all cyclic orders coincide (paper
// §1.3); on higher-degree families the shuffle explores port orderings the
// fixed constructors never produce.
func shuffledDef() *TopologyDef {
	return &TopologyDef{
		Name:   "shuffled",
		Seeded: true,
		Parse: func(params string) (string, int, error) {
			if params == "" {
				return "", 0, fmt.Errorf("shuffled needs a base spec (shuffled:<spec>)")
			}
			base, err := parseTopo(params)
			if err != nil {
				return "", 0, err
			}
			return base.canonical, base.size, nil
		},
		Resolve: func(params string, n int) string {
			base, _ := parseTopo(params) // params are canonical, re-parse cannot fail
			return base.resolved(n)
		},
		Build: func(params string, n int, seed uint64) (*graph.Graph, error) {
			base, err := parseTopo(params)
			if err != nil {
				return nil, err
			}
			// Split the seed so the base build (itself possibly seeded) and
			// the port shuffle consume decorrelated streams.
			g, err := buildInstance(base, n, DeriveSeed(seed, hashString("base")))
			if err != nil {
				return nil, err
			}
			return g.ShufflePorts(xrand.New(DeriveSeed(seed, hashString("shuffle")))), nil
		},
	}
}

func init() {
	RegisterTopology(sizedFamily("ring", 3, maxDim, graph.Ring))
	RegisterTopology(sizedFamily("path", 2, maxDim, graph.Path))
	// Complete graphs get a tighter cap: their edge count is quadratic.
	RegisterTopology(sizedFamily("complete", 2, 1<<16, graph.Complete))
	RegisterTopology(sizedFamily("star", 2, maxDim, graph.Star))
	RegisterTopology(sizedFamily("hypercube", 1, 20, graph.Hypercube))
	RegisterTopology(sizedFamily("btree", 2, 30, graph.CompleteBinaryTree))
	RegisterTopology(dims2Family("grid", 1, graph.Grid2D))
	RegisterTopology(dims2Family("torus", 3, graph.Torus2D))
	RegisterTopology(rrDef())
	RegisterTopology(lollipopDef())
	RegisterTopology(shuffledDef())
}
