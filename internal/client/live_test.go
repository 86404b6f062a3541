package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// startLive serves a fresh cache on loopback and returns a client for it.
func startLive(t *testing.T) *client.Client {
	t.Helper()
	cache, err := stemcache.New[string, []byte](stemcache.Config{Capacity: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cache, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(client.Config{Addr: srv.Addr(), OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		cache.Close()
	})
	return cl
}

// TestBatchMatchesSingleOps pins what a pipelined batch answers against a
// live server: every operation kind, hits and misses, in a batch longer than
// 64 operations whose values differ in length (one of them empty), checked
// against the values the test wrote and against the single operations' own
// answers. Doing the same batch again without Reset must answer the same.
// It also pins the single operations' ownership contract: a value Get
// returned is unchanged by later Gets.
func TestBatchMatchesSingleOps(t *testing.T) {
	cl := startLive(t)

	const nkeys = 56
	keys := make([]string, nkeys)
	vals := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("live:k%02d", i)
		vals[i] = bytes.Repeat([]byte{byte('a' + i%26)}, (i*37)%200) // keys[0] holds an empty value
		if err := cl.Set(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	mkeys := make([]string, 16)
	for i := range mkeys {
		if i%4 == 3 {
			mkeys[i] = fmt.Sprintf("live:mabsent%d", i)
		} else {
			mkeys[i] = keys[i]
		}
	}
	ttlVal := []byte("ttl-value")

	b := cl.NewBatch()
	for _, k := range keys {
		b.Get(k)
	}
	for i := 0; i < 8; i++ {
		b.Get(fmt.Sprintf("live:absent%d", i))
	}
	b.MGet(mkeys...)
	b.Set("live:del", []byte("doomed"))
	b.Del("live:del")
	b.Del("live:absent")
	b.SetTTL("live:ttl", ttlVal, time.Hour)
	b.Get("live:ttl")
	b.Ping()
	if b.Len() <= 64 {
		t.Fatalf("batch holds %d operations, want more than 64", b.Len())
	}

	check := func(round int, res []client.Result) {
		t.Helper()
		if len(res) != b.Len() {
			t.Fatalf("round %d: %d results for %d operations", round, len(res), b.Len())
		}
		for i, r := range res {
			if err := r.Err(); err != nil {
				t.Fatalf("round %d: result %d: %v", round, i, err)
			}
		}
		next := 0
		for i := range keys {
			v, found := res[next].Get()
			if !found || !bytes.Equal(v, vals[i]) {
				t.Fatalf("round %d: GET %s = (%q, %v), want (%q, true)", round, keys[i], v, found, vals[i])
			}
			single, sfound, err := cl.Get(keys[i])
			if err != nil || sfound != found || !bytes.Equal(single, v) {
				t.Fatalf("round %d: single GET %s = (%q, %v, %v), batch read %q", round, keys[i], single, sfound, err, v)
			}
			next++
		}
		for i := 0; i < 8; i++ {
			if v, found := res[next].Get(); found || v != nil || res[next].Status() != wire.StatusNotFound {
				t.Fatalf("round %d: GET of an absent key = (%q, %v, %v)", round, v, found, res[next].Status())
			}
			next++
		}
		values, found := res[next].Values()
		if len(values) != len(mkeys) || len(found) != len(mkeys) {
			t.Fatalf("round %d: MGET answered %d values, %d flags for %d keys", round, len(values), len(found), len(mkeys))
		}
		svalues, sfound, err := cl.MGet(mkeys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mkeys {
			absent := i%4 == 3
			if found[i] == absent || (absent && values[i] != nil) || (!absent && !bytes.Equal(values[i], vals[i])) {
				t.Fatalf("round %d: MGET[%d] %s = (%q, %v)", round, i, mkeys[i], values[i], found[i])
			}
			if sfound[i] != found[i] || !bytes.Equal(svalues[i], values[i]) {
				t.Fatalf("round %d: single MGET[%d] = (%q, %v), batch read (%q, %v)", round, i, svalues[i], sfound[i], values[i], found[i])
			}
		}
		next++
		if !res[next].Found() {
			t.Fatalf("round %d: SET status %v", round, res[next].Status())
		}
		next++
		if !res[next].Found() {
			t.Fatalf("round %d: DEL of a resident key missed", round)
		}
		next++
		if res[next].Found() {
			t.Fatalf("round %d: DEL of an absent key hit", round)
		}
		next++
		if res[next].Status() != wire.StatusOK {
			t.Fatalf("round %d: SETTTL status %v", round, res[next].Status())
		}
		next++
		if v, found := res[next].Get(); !found || !bytes.Equal(v, ttlVal) {
			t.Fatalf("round %d: GET after SETTTL = (%q, %v)", round, v, found)
		}
		next++
		if res[next].Status() != wire.StatusOK {
			t.Fatalf("round %d: PING status %v", round, res[next].Status())
		}
	}
	for round := 0; round < 2; round++ {
		res, err := b.Do()
		if err != nil {
			t.Fatal(err)
		}
		check(round, res)
	}

	// A single Get's value is the caller's: later Gets leave it alone.
	v, found, err := cl.Get(keys[1])
	if err != nil || !found {
		t.Fatalf("GET %s = (%v, %v)", keys[1], found, err)
	}
	want := bytes.Clone(v)
	for i := 0; i < 100; i++ {
		if _, _, err := cl.Get(keys[2+i%(nkeys-2)]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(v, want) {
		t.Fatalf("a single GET's value changed under later Gets: %q, was %q", v, want)
	}
}
