package clock

import (
	"testing"
	"time"
)

// TestManual: a manual clock reads 0 until moved, and Advance and Sleep
// move it by exactly their durations.
func TestManual(t *testing.T) {
	var m Manual
	if got := m.Now(); got != 0 {
		t.Fatalf("zero Manual reads %d, want 0", got)
	}
	m.Advance(time.Second)
	m.Sleep(10 * time.Millisecond)
	if got, want := time.Duration(m.Now()), time.Second+10*time.Millisecond; got != want {
		t.Fatalf("Manual reads %v, want %v", got, want)
	}
}

// TestRealSleeps: the real clock's Sleep waits at least d as its own Now
// measures it.
func TestRealSleeps(t *testing.T) {
	start := Real.Now()
	Real.Sleep(time.Millisecond)
	if got := time.Duration(Real.Now() - start); got < time.Millisecond {
		t.Fatalf("Real.Sleep(1ms) took %v by Real.Now", got)
	}
}
