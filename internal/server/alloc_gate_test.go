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
// ceiling is the count measured when it was last lowered (64-byte values);
// the counts repeat exactly from run to run. A GET hit's one allocation is
// the value the caller keeps; a SET's two are the server's copies of its
// key and value.
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

	checkAllocs(t, []allocCase{
		{"GET hit", 1, func() error { _, _, err := cl.Get(keys[0]); return err }},
		{"GET miss", 0, func() error { _, _, err := cl.Get("alloc:absent"); return err }},
		{"SET", 2, func() error { return cl.Set(keys[1], val) }},
		{"DEL miss", 0, func() error { _, err := cl.Del("alloc:absent"); return err }},
		{"MGET×16", 8, func() error { _, _, err := cl.MGet(keys); return err }},
		{"MSET×16", 32, func() error { return cl.MSet(pairs) }},
		{"PING", 0, cl.Ping},
	})
}

// TestBatchAllocsPerOp is the same process-wide gate for one warm pipelined
// Batch.Do, the shape serve-batch sends: a batch decodes into storage it
// owns and reuses, so sixteen GET hits allocate nothing anywhere, and each
// SET ahead of them costs only the server's copies of its key and value.
func TestBatchAllocsPerOp(t *testing.T) {
	srv, _ := startServer(t, stemcache.Config{Capacity: 1 << 12, Seed: 1}, server.Config{})
	cl := newClient(t, srv.Addr())

	val := make([]byte, 64)
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:batch:%02d", i)
		if err := cl.Set(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	// Each run queues afresh on a reused batch, as serve-batch's loop does,
	// so request storage is in the count too.
	b := cl.NewBatch()
	do := func(sets int) func() error {
		return func() error {
			b.Reset()
			for _, k := range keys[16 : 16+sets] {
				b.Set(k, val)
			}
			for _, k := range keys[:16] {
				b.Get(k)
			}
			res, err := b.Do()
			if err != nil {
				return err
			}
			for _, r := range res[sets:] {
				if _, found := r.Get(); !found {
					return fmt.Errorf("batched GET missed")
				}
			}
			return nil
		}
	}
	checkAllocs(t, []allocCase{
		{"16 GETs", 0, do(0)},
		{"4 SETs + 16 GETs", 8, do(4)},
	})
}

// allocCase is one operation of an allocation gate and its ceiling.
type allocCase struct {
	name string
	max  float64
	op   func() error
}

// checkAllocs runs each op once to reach steady state, then fails it if its
// process-wide allocations per run exceed max (`-v` prints every count).
func checkAllocs(t *testing.T, ops []allocCase) {
	t.Helper()
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
