//go:build !race

// The layout gate runs with the allocation and count gates, in the plain
// build CI gives them their own step for.

package core

import (
	"testing"
	"unsafe"
)

// TestEngineLayout holds the engine's per-set layout: a set's control state
// is one 64-byte line, a paper-sized engine's sets start on a line, so no
// set straddles two, and building an engine takes as many allocations at 64
// sets as at 4096 (the per-way cells are slabs, not per-set slices).
func TestEngineLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is laid out for 64-bit words")
	}
	if size := unsafe.Sizeof(ctlSet{}); size != 64 {
		t.Errorf("ctlSet is %d bytes, want 64", size)
	}
	e := NewEngine(Config{}, 2048, 16, 0)
	if p := uintptr(unsafe.Pointer(&e.sets[0])); p%64 != 0 {
		t.Errorf("2048-set engine: sets at %#x, not on a 64-byte line", p)
	}
	small := testing.AllocsPerRun(20, func() { e = NewEngine(Config{}, 64, 16, 0) })
	large := testing.AllocsPerRun(20, func() { e = NewEngine(Config{}, 4096, 16, 0) })
	if small != large {
		t.Errorf("NewEngine: %v allocations at 64 sets, %v at 4096; want the same", small, large)
	}
}
