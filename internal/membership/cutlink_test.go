package membership_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/membership"
)

// linkProxy relays TCP connections to one node. cut drops every relayed
// connection and refuses new ones until heal: the link between one client
// and one node goes down while the node itself, its peers and the manager's
// heartbeats stay up.
type linkProxy struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu    sync.Mutex
	down  bool
	conns []net.Conn
}

// startLinkProxy listens on a loopback port and relays to target until the
// test ends.
func startLinkProxy(t *testing.T, target string) *linkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &linkProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.cut()
		p.wg.Wait()
	})
	return p
}

func (p *linkProxy) addr() string { return p.ln.Addr().String() }

// serve accepts, dials through, and pipes both ways; a connection made
// while the link is cut is closed at once.
func (p *linkProxy) serve() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		if p.down {
			p.mu.Unlock()
			down.Close()
			up.Close()
			continue
		}
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(up, down)
		go p.pipe(down, up)
	}
}

// pipe copies src to dst until either side closes, then closes both.
func (p *linkProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(dst, src) // its error is the close that ends the relay
	dst.Close()
	src.Close()
}

// cut closes every relayed connection and refuses new ones.
func (p *linkProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = true
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// heal lets new connections through again.
func (p *linkProxy) heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = false
}

// TestCutOwnerLinkLosesNoAckedWrite cuts the link between a client and one
// key's owner while the owner stays alive: no failover happens, and after
// the link heals every write the client saw acked must hold. Per key the
// client writes v1, the owner's link is cut, the client overwrites (or
// deletes) the key, the link heals, and the client reads the key back. A
// write the cluster acked through a follower would be lost here: the owner
// never sees it and still serves v1.
func TestCutOwnerLinkLosesNoAckedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("membership e2e drives loopback round trips")
	}
	const keys = 30
	for _, del := range []bool{false, true} {
		name := map[bool]string{false: "set", true: "del"}[del]
		t.Run(name, func(t *testing.T) {
			mc, _ := startMemCluster(t, memNodes, membership.Config{ReplicationFactor: 2})
			proxies := make([]*linkProxy, memNodes)
			addrs := make([]string, memNodes)
			for i, a := range mc.Addrs() {
				proxies[i] = startLinkProxy(t, a)
				addrs[i] = proxies[i].addr()
			}
			// A write to the cut owner waits OpTimeout for a failover that
			// does not come: a manual clock passes it in no real time.
			tpl := memTpl()
			tpl.Clock = new(clock.Manual)
			cl, err := cluster.NewClient(cluster.Config{Addrs: addrs, VNodes: memVNodes, Seed: memSeed, Client: tpl})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })

			lost, refused := 0, 0
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("cut-%02d", i)
				if err := cl.Set(k, []byte("v1")); err != nil {
					t.Fatalf("set %q before the cut: %v", k, err)
				}
				owner := cl.View().Owner(cl.Ring().SlotOf(k, cl.Ring().Slots()))
				proxies[owner].cut()
				if del {
					_, err = cl.Del(k)
				} else {
					err = cl.Set(k, []byte("v2"))
				}
				proxies[owner].heal()
				if err != nil {
					if !client.IsTransient(err) {
						t.Fatalf("%s %q during the cut: %v, want the owner's transient error", name, k, err)
					}
					refused++
					continue
				}
				v, found, err := cl.Get(k)
				if err != nil {
					t.Fatalf("get %q after the heal: %v", k, err)
				}
				if (del && found) || (!del && string(v) != "v2") {
					lost++
					t.Logf("%s %q was acked during the cut; after the heal it reads %q (found %v)", name, k, v, found)
				}
			}
			if lost > 0 {
				t.Fatalf("%d of %d acked %s writes lost after the link healed", lost, keys, name)
			}
			t.Logf("%d of %d writes during the cut refused, none acked and lost", refused, keys)
		})
	}
}
