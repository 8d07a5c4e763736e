// Package registry is the one name table behind every extensible
// vocabulary: the engine's processes, metrics, topologies, schedules,
// missions and sinks, and the public probes. A Table owns the name policy
// all of them share, so declaring a vocabulary is one New call:
//
//   - names are stored lower-cased, and lookups fold case;
//   - an empty name, a name containing ':' or whitespace (the spec and
//     flag separators) or a duplicate panics at registration;
//   - Names is sorted;
//   - unknown names fail as "<pkg>: unknown <kind> %q (registered: a|b|…)";
//   - Split resolves one "family[:params]" spec.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Table maps names to definitions D. It is safe for concurrent use.
type Table[D any] struct {
	pkg, kind string
	mu        sync.RWMutex
	defs      map[string]D
}

// New returns an empty table whose messages read "<pkg>: … <kind> …".
func New[D any](pkg, kind string) *Table[D] {
	return &Table[D]{pkg: pkg, kind: kind, defs: map[string]D{}}
}

// Add registers d under name, lower-cased. Names appear in specs, flags,
// rows and URLs, so a name that a spec or flag could not spell (empty, or
// containing ':' or whitespace) or one already taken panics.
func (t *Table[D]) Add(name string, d D) {
	key := strings.ToLower(name)
	if key == "" || strings.ContainsFunc(key, func(r rune) bool { return r == ':' || unicode.IsSpace(r) }) {
		panic(fmt.Sprintf("%s: %s name %q must be non-empty, without ':' or spaces", t.pkg, t.kind, name))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.defs[key]; dup {
		panic(fmt.Sprintf("%s: duplicate %s %q", t.pkg, t.kind, key))
	}
	t.defs[key] = d
}

// Lookup returns the definition registered under name (case-insensitive).
func (t *Table[D]) Lookup(name string) (D, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.defs[strings.ToLower(name)]
	return d, ok
}

// Get is Lookup that fails on an unknown name with the registered list.
func (t *Table[D]) Get(name string) (D, error) {
	d, ok := t.Lookup(name)
	if !ok {
		return d, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			t.pkg, t.kind, strings.ToLower(name), strings.Join(t.Names(), "|"))
	}
	return d, nil
}

// Names lists the registered names, sorted.
func (t *Table[D]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.defs))
	for n := range t.defs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Split resolves a "family[:params]" spec: it trims and lower-cases spec,
// cuts it at the first ':' and looks the family up. It returns the
// family's definition, the normalized spec (for error messages) and the
// trimmed params.
func (t *Table[D]) Split(spec string) (d D, norm, params string, err error) {
	norm = strings.ToLower(strings.TrimSpace(spec))
	family, params, _ := strings.Cut(norm, ":")
	d, err = t.Get(strings.TrimSpace(family))
	return d, norm, strings.TrimSpace(params), err
}
