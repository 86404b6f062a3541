package server_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/wire"
)

// noView is a server.Membership that holds no view: it serves every key
// and fans nothing out. Test memberships embed it and override the
// methods they exercise.
type noView struct{}

func (noView) Update(wire.View) (wire.View, error)        { return wire.View{}, nil }
func (noView) Serves(string, bool) bool                   { return true }
func (noView) ReplicateSet(string, []byte, time.Duration) {}
func (noView) ReplicateDelete(string)                     {}

// prefixView is a membership whose view owns the keys prefixed "own" and
// holds a replica of those prefixed "rep".
type prefixView struct {
	noView
	held wire.View
}

func (p *prefixView) Update(w wire.View) (wire.View, error) {
	if w.Epoch > p.held.Epoch {
		p.held = w
	}
	return p.held, nil
}

func (p *prefixView) Serves(key string, write bool) bool {
	return strings.HasPrefix(key, "own") || !write && strings.HasPrefix(key, "rep")
}

// TestKeyedOpsFollowTheView: with a membership installed, a write needs the
// node to own its key and a read to hold a replica; every other keyed
// request is answered MOVED with the membership's view, and never reaches
// the cache. REPLICATE, VIEW, PING and STATS are not routed.
func TestKeyedOpsFollowTheView(t *testing.T) {
	srv, cache := startServer(t, stemcache.Config{Capacity: 256}, server.Config{})
	view := wire.View{Epoch: 5, Members: []wire.Member{{Addr: "h:0"}}, Replicas: [][]int{{0}}}
	srv.SetMembership(&prefixView{held: view})
	cl := newClient(t, srv.Addr())

	moved := func(what string, err error) {
		t.Helper()
		var me *client.MovedError
		if !errors.As(err, &me) || me.View.Epoch != 5 || len(me.View.Members) != 1 || me.View.Members[0].Addr != "h:0" {
			t.Errorf("%s: %v, want MOVED carrying view 5", what, err)
		}
		if client.IsTransient(err) {
			t.Errorf("%s: a MOVED answer reads as transient", what)
		}
	}
	if err := cl.Set("own-a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get("own-a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("get own-a: %q %v %v", v, ok, err)
	}
	if _, ok, err := cl.Get("rep-a"); err != nil || ok {
		t.Fatalf("get rep-a: %v %v, want a served miss", ok, err)
	}
	_, _, err := cl.Get("far")
	moved("get far", err)
	moved("set rep-a", cl.Set("rep-a", []byte("x")))
	_, err = cl.Del("far")
	moved("del far", err)
	_, _, err = cl.MGet([]string{"own-a", "far"})
	moved("mget own-a far", err)
	moved("mset rep-a", cl.MSet([]wire.KV{{Key: "own-b"}, {Key: "rep-a"}}))
	if _, ok := cache.Get("rep-a"); ok {
		t.Fatal("a refused write reached the cache")
	}

	if err := cl.Replicate("far", []byte("copied"), 0); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if v, ok := cache.Get("far"); !ok || string(v) != "copied" {
		t.Fatalf("replicated key: %q %v", v, ok)
	}
	if held, err := cl.View(wire.View{}); err != nil || held.Epoch != 5 {
		t.Fatalf("view fetch: epoch %d, %v", held.Epoch, err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
}
