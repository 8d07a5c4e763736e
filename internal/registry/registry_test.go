package registry

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// TestAddLowerCases: mixed-case names are stored lower-cased and lookups
// fold case.
func TestAddLowerCases(t *testing.T) {
	tab := New[int]("pkg", "thing")
	tab.Add("MiXed", 7)
	if got := tab.Names(); !reflect.DeepEqual(got, []string{"mixed"}) {
		t.Errorf("Names() = %v, want [mixed]", got)
	}
	for _, name := range []string{"mixed", "MIXED", "MiXed"} {
		if d, ok := tab.Lookup(name); !ok || d != 7 {
			t.Errorf("Lookup(%q) = %d, %v", name, d, ok)
		}
	}
}

// TestAddRejects: names a spec or flag could not spell, and duplicates,
// panic at registration.
func TestAddRejects(t *testing.T) {
	tab := New[int]("pkg", "thing")
	tab.Add("taken", 1)
	for what, name := range map[string]string{
		"empty":     "",
		"colon":     "a:b",
		"space":     "a b",
		"tab":       "a\tb",
		"duplicate": "taken",
		"dup-case":  "TAKEN",
	} {
		mustPanic(t, what, func() { tab.Add(name, 2) })
	}
	if got := tab.Names(); !reflect.DeepEqual(got, []string{"taken"}) {
		t.Errorf("rejected names leaked into the table: %v", got)
	}
}

// TestNamesAndUnknown: Names is sorted, and an unknown name fails listing
// every registered name joined by '|'.
func TestNamesAndUnknown(t *testing.T) {
	tab := New[string]("pkg", "thing")
	for _, n := range []string{"gamma", "alpha", "beta"} {
		tab.Add(n, n)
	}
	if got := tab.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta", "gamma"}) {
		t.Errorf("Names() = %v, want sorted", got)
	}
	if d, err := tab.Get("Beta"); err != nil || d != "beta" {
		t.Errorf("Get(Beta) = %q, %v", d, err)
	}
	_, err := tab.Get("Delta")
	want := `pkg: unknown thing "delta" (registered: alpha|beta|gamma)`
	if err == nil || err.Error() != want {
		t.Errorf("Get(Delta) error %v, want %s", err, want)
	}
}

// TestSplit: the family[:params] split trims, lower-cases and cuts at the
// first ':' only; an unknown family returns the unknown-name error.
func TestSplit(t *testing.T) {
	tab := New[string]("pkg", "family")
	tab.Add("shuffled", "shuffled-def")
	tab.Add("ring", "ring-def")
	cases := []struct{ spec, def, norm, params string }{
		{" Shuffled:Grid:8x8 ", "shuffled-def", "shuffled:grid:8x8", "grid:8x8"},
		{"RING", "ring-def", "ring", ""},
		{"ring : 1024 ", "ring-def", "ring : 1024", "1024"},
	}
	for _, c := range cases {
		d, norm, params, err := tab.Split(c.spec)
		if err != nil || d != c.def || norm != c.norm || params != c.params {
			t.Errorf("Split(%q) = %q, %q, %q, %v; want %q, %q, %q",
				c.spec, d, norm, params, err, c.def, c.norm, c.params)
		}
	}
	_, _, _, err := tab.Split("Moebius:3")
	if err == nil || err.Error() != `pkg: unknown family "moebius" (registered: ring|shuffled)` {
		t.Errorf("Split(Moebius:3) error %v", err)
	}
	if _, _, _, err := tab.Split(""); err == nil || !strings.Contains(err.Error(), "registered: ring|shuffled") {
		t.Errorf("Split(\"\") error %v", err)
	}
}

// TestConcurrentUse: registrations and lookups from several goroutines at
// once (sweep workers look names up while a package may still register).
func TestConcurrentUse(t *testing.T) {
	tab := New[int]("pkg", "thing")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				tab.Add(name, i)
				if d, err := tab.Get(name); err != nil || d != i {
					t.Errorf("Get(%s) = %d, %v", name, d, err)
				}
				_ = tab.Names()
			}
		}()
	}
	wg.Wait()
	if got := len(tab.Names()); got != 200 {
		t.Errorf("%d names registered, want 200", got)
	}
}
