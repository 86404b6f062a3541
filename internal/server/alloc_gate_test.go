//go:build !race

// The race detector instruments allocations, so these counts only hold in a
// plain build: `go test ./...` runs this file, `go test -race` does not, and
// CI runs the gate as its own non-race step.

package server_test

import (
	"fmt"
	"testing"

	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// TestServeAllocsPerOp is the allocation gate for one operation across the
// whole serving path: client encode, loopback, conn.serve, Server.handle,
// the cache, the response, and the client's decode. testing.AllocsPerRun
// counts the whole process, so both ends of the socket are in the count, and
// an allocation added on either side, in any package, raises it. Each
// ceiling is the count measured when the gate was written (64-byte values);
// the counts repeat exactly from run to run.
func TestServeAllocsPerOp(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 12, Seed: 1}, server.Config{})
	cl := newClient(t, srv.Addr())

	val := make([]byte, 64)
	keys := make([]string, 16)
	pairs := make([]wire.KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:key:%02d", i)
		pairs[i] = wire.KV{Key: keys[i], Value: val}
	}
	if err := cl.MSet(pairs); err != nil {
		t.Fatal(err)
	}

	ops := []struct {
		name string
		max  float64
		op   func() error
	}{
		{"GET hit", 3, func() error { _, _, err := cl.Get(keys[0]); return err }},
		{"GET miss", 2, func() error { _, _, err := cl.Get("alloc:absent"); return err }},
		{"SET", 4, func() error { return cl.Set(keys[1], val) }},
		{"DEL miss", 2, func() error { _, err := cl.Del("alloc:absent"); return err }},
		{"MGET×16", 25, func() error { _, _, err := cl.MGet(keys); return err }},
		{"MSET×16", 34, func() error { return cl.MSet(pairs) }},
		{"PING", 2, cl.Ping},
	}
	for _, o := range ops {
		if err := o.op(); err != nil { // reach steady state before measuring
			t.Fatalf("%s: %v", o.name, err)
		}
		var err error
		allocs := testing.AllocsPerRun(2000, func() {
			if e := o.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		if allocs > o.max {
			t.Errorf("%s: %v allocs/op, want ≤ %v", o.name, allocs, o.max)
		}
		t.Logf("%s: %v allocs/op (ceiling %v)", o.name, allocs, o.max)
	}
}
