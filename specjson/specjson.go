// Package specjson is the versioned wire codec for rotorring.SweepSpec:
// the JSON form sweep specs take on disk, in fixtures, and over the rotord
// service API (POST /v1/sweeps).
//
// The wire format has exactly one spelling per concept and rejects
// unknown keys; enums travel as their flag strings ("single", "negative",
// "fast") rather than opaque integers; and every topology, schedule and
// mission spec is canonicalized through its registry parser on decode, so
// a spec that decodes is a spec that runs.
//
// A version-1 document looks like:
//
//	{
//	  "v": 1,
//	  "topologies": ["ring", "grid:8x8", "rr:3"],
//	  "sizes": [64, 128],
//	  "agents": [2, 4],
//	  "placements": ["single", "equal"],
//	  "pointers": ["zero"],
//	  "process": "rotor",
//	  "metric": "cover",
//	  "replicas": 2,
//	  "seed": 7,
//	  "schedules": ["none", "delay:p=0.25"],
//	  "missions": ["none", "explore", "patrol:horizon=4096"]
//	}
//
// The "v" field is required and must equal Version: specs are long-lived
// artifacts and an unversioned or future-version blob fails loudly instead
// of being reinterpreted. Encode always emits canonical bytes — equal
// specs encode equal — which is what the rotord service derives sweep ids
// and spool spec hashes from.
package specjson

import (
	"rotorring"
	"rotorring/internal/engine"
)

// Version is the wire-format version this codec reads and writes.
const Version = engine.WireVersion

// Encode renders spec in canonical version-1 wire form. Every topology,
// schedule and mission spec is canonicalized, and the spec is fully
// validated first — encoding an invalid spec fails here rather than at
// the first decoder.
func Encode(spec rotorring.SweepSpec) ([]byte, error) {
	return engine.EncodeWireSpec(spec)
}

// Decode parses a version-1 wire spec: it requires "v": 1, rejects unknown
// fields, canonicalizes topology, schedule and mission specs, and
// fail-fast validates the grid against the registries. The returned spec
// re-encodes to the same canonical bytes.
func Decode(data []byte) (rotorring.SweepSpec, error) {
	return engine.DecodeWireSpec(data)
}
