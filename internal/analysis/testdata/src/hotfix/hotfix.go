// Package hotfix is the hotpath-analyzer fixture. The tests bind it to
// fixture/internal/hotfix, so the hotfix hot-root table applies: Serve and
// Cache.Get are roots, slowStats is cold. Functions reachable from the
// roots are flagged for allocation-causing constructs; error branches,
// cold-listed functions, and unreachable functions stay silent. The table
// also lists a root (Cache.Put) and a cold name (oldStats) that match no
// function here; each is reported once, on the package clause.
package hotfix

import (
	"errors"
	"fmt"
)

// Cache is the method-root half of the fixture's hot table.
type Cache struct {
	entries map[string][]byte
	scratch []byte
}

// Get is a hot root: the map literal, fresh append, and conversion below
// must all be flagged.
func (c *Cache) Get(key string) []byte {
	c.scratch = append([]byte{}, key...) // fresh-slice append: flagged
	return c.entries[string(c.scratch)]  // []byte→string conversion: flagged
}

// Serve is the function-root half. Hotness must propagate through dispatch
// into encodeKey (two same-package hops), while the error branch and the
// cold slowStats call stay exempt.
func Serve(key string) ([]byte, error) {
	v, err := dispatch(key)
	if err != nil {
		// Cold branch: error rendering may allocate freely.
		return nil, fmt.Errorf("serve %q: %w", key, err)
	}
	slowStats() // cold-listed: its allocations are not findings
	n := len(v)
	fmt.Println(n) // flagged: fmt call, and the int operand boxes
	//lint:allow(hotpath) fixture: demonstrates an excused allocation
	excused := make([]byte, n)
	return excused, nil
}

// dispatch is hot only by propagation from Serve.
func dispatch(key string) ([]byte, error) {
	if key == "" {
		return nil, errors.New("empty key") // exempt: returns a non-nil error
	}
	return encodeKey(key), nil
}

// encodeKey is two call hops from the root; its conversion is still hot.
func encodeKey(key string) []byte {
	return []byte(key) // string→[]byte conversion: flagged
}

// slowStats is cold-listed: a stats snapshot that shares the package with
// the hot loop by design. Nothing in here may be reported.
func slowStats() map[string]int {
	return map[string]int{"gets": 1}
}

// Offline is unreachable from any root, so its allocations are not
// findings even though they would be on a hot path.
func Offline() *Cache {
	return &Cache{entries: map[string][]byte{}}
}
