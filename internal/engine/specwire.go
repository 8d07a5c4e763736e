package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// This file is the wire-level codec for SweepSpec: the versioned JSON form
// specs take on disk and over the service API (see the public specjson
// package). Enums travel as their flag strings and every list entry is
// canonicalized on decode.

// WireVersion is the current wire-format version. Decoding requires an
// explicit matching "v" field: specs are long-lived artifacts (spool
// directories, fixtures, client code), and an unversioned or future-version
// blob must fail loudly instead of being reinterpreted. See DESIGN.md,
// "Wire spec versioning", for the compatibility policy.
const WireVersion = 1

// wireSpec is the version-1 wire layout. Field order here is the canonical
// field order of encoded specs; EncodeWireSpec output is the canonical
// byte form (sweep ids and spec hashes are derived from it).
type wireSpec struct {
	V          int         `json:"v"`
	Topologies []string    `json:"topologies,omitempty"`
	Sizes      []int       `json:"sizes,omitempty"`
	Agents     []int       `json:"agents"`
	Placements []string    `json:"placements,omitempty"`
	Pointers   []string    `json:"pointers,omitempty"`
	Process    string      `json:"process,omitempty"`
	Metric     string      `json:"metric,omitempty"`
	Probes     []ProbeSpec `json:"probes,omitempty"`
	Replicas   int         `json:"replicas,omitempty"`
	Seed       uint64      `json:"seed,omitempty"`
	MaxRounds  int64       `json:"maxRounds,omitempty"`
	Kernel     string      `json:"kernel,omitempty"`
	Schedules  []string    `json:"schedules,omitempty"`
	Missions   []string    `json:"missions,omitempty"`
}

// wireFields is the set of accepted top-level keys.
var wireFields = map[string]bool{
	"v": true, "topologies": true, "sizes": true, "agents": true,
	"placements": true, "pointers": true, "process": true,
	"metric": true, "probes": true, "replicas": true, "seed": true,
	"maxRounds": true, "kernel": true, "schedules": true,
	"missions": true,
}

// DecodeWireSpec parses a version-1 wire spec: it requires "v": 1, rejects
// unknown fields, canonicalizes every topology and schedule spec through
// its registry parser, resolves enum strings, and fail-fast validates the
// whole grid (registry names, metric/schedule compatibility) so an
// accepted spec cannot fail for spec-level reasons at run time. The
// returned spec re-encodes to canonical bytes via EncodeWireSpec.
func DecodeWireSpec(data []byte) (SweepSpec, error) {
	// A raw key scan runs before the typed decode: encoding/json matches
	// keys case-insensitively and ignores unknown ones, while the wire
	// format accepts exactly the wireFields spellings.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return SweepSpec{}, fmt.Errorf("engine: wire spec: %w", err)
	}
	var unknown []string
	for k := range raw {
		if !wireFields[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return SweepSpec{}, fmt.Errorf("engine: wire spec: unknown field(s) %s",
			strings.Join(unknown, ", "))
	}
	vRaw, ok := raw["v"]
	if !ok {
		return SweepSpec{}, fmt.Errorf(`engine: wire spec: missing required version field "v" (want %d)`, WireVersion)
	}
	var v int
	if err := json.Unmarshal(vRaw, &v); err != nil || v != WireVersion {
		return SweepSpec{}, fmt.Errorf(`engine: wire spec: unsupported version %s (this codec speaks "v": %d)`, vRaw, WireVersion)
	}

	var w wireSpec
	if err := json.Unmarshal(data, &w); err != nil {
		return SweepSpec{}, fmt.Errorf("engine: wire spec: %w", err)
	}
	spec := SweepSpec{
		Sizes:     w.Sizes,
		Agents:    w.Agents,
		Process:   strings.ToLower(w.Process),
		Metric:    strings.ToLower(w.Metric),
		Probes:    w.Probes,
		Replicas:  w.Replicas,
		Seed:      w.Seed,
		MaxRounds: w.MaxRounds,
	}
	for _, t := range w.Topologies {
		topo, err := ParseTopo(t)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("engine: wire spec: topologies: %w", err)
		}
		spec.Topologies = append(spec.Topologies, topo)
	}
	for _, s := range w.Schedules {
		sched, err := ParseSchedule(s)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("engine: wire spec: schedules: %w", err)
		}
		spec.Schedules = append(spec.Schedules, sched)
	}
	for _, m := range w.Missions {
		mi, err := ParseMission(m)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("engine: wire spec: missions: %w", err)
		}
		spec.Missions = append(spec.Missions, mi)
	}
	for _, p := range w.Placements {
		pl, err := ParsePlacement(p)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("engine: wire spec: placements: %w", err)
		}
		spec.Placements = append(spec.Placements, pl)
	}
	for _, p := range w.Pointers {
		pt, err := ParsePointer(p)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("engine: wire spec: pointers: %w", err)
		}
		spec.Pointers = append(spec.Pointers, pt)
	}
	kern, err := ParseKernel(w.Kernel)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("engine: wire spec: %w", err)
	}
	spec.Kernel = kern
	// Full grid validation on a throwaway copy: registry lookups, probe
	// names, metric/schedule compatibility. The returned spec stays
	// default-free (what was absent on the wire stays zero-valued) so
	// decode/encode round-trips are stable.
	if _, err := spec.withDefaults(); err != nil {
		return SweepSpec{}, fmt.Errorf("engine: wire spec: %w", err)
	}
	return spec, nil
}

// EncodeWireSpec renders a spec in canonical version-1 wire form: "v": 1
// first, enums as strings, topology and schedule specs canonicalized, zero
// fields omitted. The output is deterministic: equal specs encode to equal
// bytes, which is what sweep ids and spool spec hashes are derived from.
func EncodeWireSpec(spec SweepSpec) ([]byte, error) {
	// Validate (and reuse the normalization's canonicalization work) up
	// front: encoding an invalid spec would just defer the failure to the
	// first decoder.
	if _, err := spec.withDefaults(); err != nil {
		return nil, err
	}
	w := wireSpec{
		V:         WireVersion,
		Sizes:     spec.Sizes,
		Agents:    spec.Agents,
		Process:   strings.ToLower(spec.Process),
		Metric:    strings.ToLower(spec.Metric),
		Probes:    spec.Probes,
		Replicas:  spec.Replicas,
		Seed:      spec.Seed,
		MaxRounds: spec.MaxRounds,
	}
	for _, t := range spec.Topologies {
		topo, err := ParseTopo(string(t))
		if err != nil {
			return nil, err
		}
		w.Topologies = append(w.Topologies, string(topo))
	}
	for _, s := range spec.Schedules {
		sched, err := ParseSchedule(string(s))
		if err != nil {
			return nil, err
		}
		w.Schedules = append(w.Schedules, string(sched))
	}
	for _, m := range spec.Missions {
		mi, err := ParseMission(string(m))
		if err != nil {
			return nil, err
		}
		w.Missions = append(w.Missions, string(mi))
	}
	for _, p := range spec.Placements {
		w.Placements = append(w.Placements, p.String())
	}
	for _, p := range spec.Pointers {
		w.Pointers = append(w.Pointers, p.String())
	}
	if spec.Kernel != KernelAuto {
		w.Kernel = spec.Kernel.String()
	}
	return json.Marshal(w)
}
