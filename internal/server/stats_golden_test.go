package server_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// statsGolden is the whole STATS document after statsMix: every field is a
// count of something the seeded op sequence did, none is a timing, so the
// document repeats byte for byte. It also pins the document's shape: a key
// added to or dropped from StatsSnapshot (a "tenants" block, say) changes
// the string.
const statsGolden = `{"node_id":0,"cache":{"Gets":6130,"Hits":2654,"Misses":3476,"Puts":3145,"Deletes":322,"Evictions":1264,"Expirations":0,"SecondaryHits":13,"ShadowHits":1162,"PolicySwaps":0,"Couplings":53,"Decouplings":51,"Spills":164,"Receives":164,"TakerSets":17,"GiverSets":2,"CoupledSets":4},"hit_rate":0.432952691680261,"len":502,"capacity":512,"conns":1,"conns_accepted":1,"requests":6410,"proto_errors":0}`

// statsMix drives cl through a seeded mix of every cache-touching opcode —
// GET, SET, a store-if-absent REPLICATE, DEL, MGET and MSET, and a
// cache-aside read that SETs on a miss — one request at a time.
// Half the keys come from a hot set a quarter of the cache's capacity, half
// from a sweep over twice it, so evictions, shadow hits, policy swaps and
// spills all fire.
func statsMix(t *testing.T, cl *client.Client, capacity, ops int) {
	t.Helper()
	r := rand.New(rand.NewPCG(0x57E4, 46))
	sweep := 0
	key := func() string {
		if r.IntN(2) == 0 {
			return fmt.Sprintf("h%d", r.IntN(capacity/4))
		}
		sweep = (sweep + 1) % (2 * capacity)
		return fmt.Sprintf("s%d", sweep)
	}
	for i := 0; i < ops; i++ {
		var err error
		switch op := r.IntN(8); op {
		case 0, 1:
			_, _, err = cl.Get(key())
		case 2:
			err = cl.Set(key(), []byte("v"))
		case 3:
			b := cl.NewBatch()
			b.ReplicateNX(key(), []byte("nx"), 0)
			_, err = b.Do()
		case 4:
			_, err = cl.Del(key())
		case 5:
			_, _, err = cl.MGet([]string{key(), key(), key(), key()})
		case 6:
			err = cl.MSet([]wire.KV{{Key: key(), Value: []byte("m")}, {Key: key(), Value: []byte("m")}})
		case 7: // cache-aside: read, and fill on a miss
			k := key()
			var ok bool
			if _, ok, err = cl.Get(k); err == nil && !ok {
				err = cl.Set(k, []byte("origin:"+k))
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// TestStatsDocumentGolden pins the STATS document of a live server after a
// seeded mixed workload on one connection, as one constant string.
func TestStatsDocumentGolden(t *testing.T) {
	srv, _ := startServer(t,
		stemcache.Config{Capacity: 512, Shards: 2, Seed: 0x57E4},
		server.Config{})
	cl, err := client.New(client.Config{Addr: srv.Addr(), PoolSize: 1, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	statsMix(t, cl, 512, 6000)
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != statsGolden {
		t.Fatalf("STATS document\n got %s\nwant %s", raw, statsGolden)
	}
}
