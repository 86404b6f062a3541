package membership

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/cluster"
)

// Rig is an in-process cluster: loopback nodes, the routing client over
// them and, once Bootstrap has run, one Agent per node plus a bootstrapped
// Manager. It is the one place the nodes → client → agents → manager
// assembly (and its join half) is written; cmd/stemcluster serves from it,
// and this package's failover and scale-out tests measure on it.
//
// Like the Manager's transitions, a Rig's methods are driven by one
// goroutine at a time (the owner's control loop); the rig adds no lock of
// its own. The client it hands out is safe for concurrent use.
type Rig struct {
	node   cluster.NodeConfig
	tpl    client.Config
	seed   uint64
	nodes  []*cluster.Node
	cl     *cluster.Client
	agents []*Agent
	mgr    *Manager
}

// StartRig starts n nodes from the node template and a routing client over
// them. cfg.Seed salts the key→slot hash and, through cluster.NodeSeed,
// derives every node's cache seed (node.Cache.Seed is overwritten); the
// cluster has n × cfg.VNodes slots; cfg.Addrs is overwritten with the
// nodes' bound addresses. The membership tier is not up yet — see Bootstrap.
func StartRig(n int, node cluster.NodeConfig, cfg cluster.Config) (*Rig, error) {
	if n <= 0 {
		return nil, errors.New("membership: rig needs at least one node")
	}
	r := &Rig{node: node, tpl: cfg.Client, seed: cfg.Seed}
	for i := 0; i < n; i++ {
		if _, err := r.startNode(); err != nil {
			r.Close()
			return nil, err
		}
	}
	cfg.Addrs = r.Addrs()
	cl, err := cluster.NewClient(cfg)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.cl = cl
	return r, nil
}

// startNode starts the next node (id = current node count) and records it.
func (r *Rig) startNode() (*cluster.Node, error) {
	id := len(r.nodes)
	cfg := r.node
	cfg.Cache.Seed = cluster.NodeSeed(r.seed, id)
	node, err := cluster.StartNode(id, cfg)
	if err != nil {
		return nil, err
	}
	r.nodes = append(r.nodes, node)
	return node, nil
}

// Bootstrap brings the membership tier up: an agent on every node (dialing
// peers with the routing client's connection template), a manager over the
// rig's client and key lister, and the initial view pushed to the agents.
// Call once, before traffic.
func (r *Rig) Bootstrap(cfg Config) error {
	if r.mgr != nil {
		return errors.New("membership: rig already bootstrapped")
	}
	for i, node := range r.nodes {
		r.agents = append(r.agents, NewAgent(i, r.cl.Ring(), node.Server(), r.tpl))
	}
	mgr, err := New(r.cl, r.Keys, r.Addrs(), cfg)
	if err != nil {
		return err
	}
	if _, err := mgr.Bootstrap(); err != nil {
		return err
	}
	r.mgr = mgr
	return nil
}

// Client returns the routing client (the one the manager drives).
func (r *Rig) Client() *cluster.Client { return r.cl }

// Manager returns the membership manager; nil before Bootstrap.
func (r *Rig) Manager() *Manager { return r.mgr }

// Addrs returns the node address table; Addrs()[i] is node i (killed nodes
// keep their entry). Any live entry seeds a routing client: the rest of
// the cluster reaches it in views.
func (r *Rig) Addrs() []string {
	addrs := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		addrs[i] = n.Addr()
	}
	return addrs
}

// Node returns node i (its cache and server, for inspection).
func (r *Rig) Node(i int) *cluster.Node { return r.nodes[i] }

// Keys lists node n's resident keys — the cluster.KeyLister the manager
// migrates with.
func (r *Rig) Keys(n int) ([]string, error) {
	if n < 0 || n >= len(r.nodes) {
		return nil, fmt.Errorf("membership: rig has no node %d", n)
	}
	return r.nodes[n].Keys(), nil
}

// Join starts one more node and its agent and hands it to the manager,
// which migrates the newcomer's share of slots to it.
func (r *Rig) Join() (Report, error) {
	if r.mgr == nil {
		return Report{}, errors.New("membership: join on a rig without a membership tier")
	}
	node, err := r.startNode()
	if err != nil {
		return Report{}, err
	}
	r.agents = append(r.agents, NewAgent(node.ID(), r.cl.Ring(), node.Server(), r.tpl))
	return r.mgr.Join(node.Addr())
}

// Kill closes node n abruptly, as a crash would: nothing tells the manager,
// so failover is left to its heartbeats (Manager.Tick).
func (r *Rig) Kill(n int) error {
	if n < 0 || n >= len(r.nodes) {
		return fmt.Errorf("membership: rig has no node %d", n)
	}
	return r.nodes[n].Close()
}

// Close stops the agents, the client and every node; safe on a partially
// started rig.
func (r *Rig) Close() {
	for _, a := range r.agents {
		a.Close()
	}
	if r.cl != nil {
		r.cl.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}
