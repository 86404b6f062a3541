package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/client"
)

// Move records one slot handoff: Slot's owner changed From → To, and Keys
// resident keys came along (0 for a failover promotion, a pure flip).
type Move struct {
	Slot, From, To int
	Keys           int
}

// KeyLister enumerates a node's resident keys for a migration, in a slice
// the caller may keep. In-process clusters use Node.Keys; an external
// deployment would plug in a SCAN-like listing. The listing may be racy
// with respect to concurrent writers — migration filters it by slot and
// treats absent keys as already gone.
type KeyLister func(node int) ([]string, error)

// slotChunks lists node's resident keys of slot and runs f on them in
// sorted chunks of chunkSize (256 when chunkSize <= 0), stopping at the
// first failure.
func (c *Client) slotChunks(lister KeyLister, slot, node, chunkSize int, f func(chunk []string) error) error {
	all, err := lister(node)
	if err != nil {
		return fmt.Errorf("cluster: listing node %d for slot %d: %w", node, slot, err)
	}
	v := c.view.Load()
	keys := slices.DeleteFunc(all, func(k string) bool { return c.slotOf(v, k) != slot })
	slices.Sort(keys)
	if chunkSize <= 0 {
		chunkSize = 256
	}
	for chunk := range slices.Chunk(keys, chunkSize) {
		if err := f(chunk); err != nil {
			return err
		}
	}
	return nil
}

// CopySlot copies slot's resident keys from node `from` to node `to`
// (MGET off from, chunked, each chunk installed on to as pipelined
// REPLICATE frames, which no view routes) and returns how many it
// offered. Each key lands only where to lacks it (FlagNX): to is cleared
// of the slot (DropSlot) before a view makes it a replica, and from then
// on every write reaches it by fan-out, so a key it holds is newer than
// the copy's. The manager's handoffs and backfills are built on it.
func (c *Client) CopySlot(lister KeyLister, slot, from, to, chunkSize int) (copied int, err error) {
	src, b := c.NodeClient(from), c.NodeClient(to).NewBatch()
	err = c.slotChunks(lister, slot, from, chunkSize, func(chunk []string) error {
		values, found, err := src.MGet(chunk)
		if err != nil {
			return fmt.Errorf("cluster: copying slot %d off node %d: %w", slot, from, err)
		}
		b.Reset()
		for i, k := range chunk {
			if found[i] {
				b.ReplicateNX(k, values[i], 0)
			}
		}
		if err := doAll(b); err != nil {
			return fmt.Errorf("cluster: installing slot %d on node %d: %w", slot, to, err)
		}
		copied += b.Len()
		return nil
	})
	return copied, err
}

// DropSlot deletes slot's resident keys from node as pipelined replicated
// deletes: the last step of a handoff, once node holds the view that moved
// the slot away and so acks no write on it, and the first step of making
// node a replica of the slot, before any view does.
func (c *Client) DropSlot(lister KeyLister, slot, node, chunkSize int) error {
	b := c.NodeClient(node).NewBatch()
	return c.slotChunks(lister, slot, node, chunkSize, func(chunk []string) error {
		b.Reset()
		for _, k := range chunk {
			b.ReplicateDelete(k)
		}
		if err := doAll(b); err != nil {
			return fmt.Errorf("cluster: clearing slot %d off node %d: %w", slot, node, err)
		}
		return nil
	})
}

// doAll sends b and returns its first failure, of the round trip or of an
// operation in it.
func doAll(b *client.Batch) error {
	res, err := b.Do()
	for _, r := range res {
		err = cmp.Or(err, r.Err())
	}
	return err
}
