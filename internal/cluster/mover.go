package cluster

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Move records one slot handoff: Slot's owner changed From → To, and Keys
// resident keys came along (0 for a failover promotion, a pure flip).
type Move struct {
	Slot, From, To int
	Keys           int
}

// KeyLister enumerates a node's resident keys for a migration. In-process
// clusters use Node.Keys; an external deployment would plug in a SCAN-like
// listing. The listing may be racy with respect to concurrent writers —
// migration filters it by slot and treats absent keys as already gone.
type KeyLister func(node int) ([]string, error)

// CopySlot copies slot's resident keys from node `from` to node `to`
// (MGET old → MSET new, chunked) without touching ring ownership. It
// returns the slot's key list (sorted, as seen by lister) and how many of
// them were actually copied. Every handoff of the membership manager
// (join, leave) and its replica backfill are built on it.
func (c *Client) CopySlot(lister KeyLister, slot, from, to, chunkSize int) (keys []string, copied int, err error) {
	if chunkSize <= 0 {
		chunkSize = 256
	}
	all, err := lister(from)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: listing node %d for slot %d: %w", from, slot, err)
	}
	for _, k := range all {
		if c.ring.SlotOfKey(k) == slot {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	src, dst := c.NodeClient(from), c.NodeClient(to)
	for off := 0; off < len(keys); off += chunkSize {
		chunk := keys[off:min(off+chunkSize, len(keys))]
		values, found, err := src.MGet(chunk)
		if err != nil {
			return keys, copied, fmt.Errorf("cluster: copying slot %d off node %d: %w", slot, from, err)
		}
		pairs := make([]wire.KV, 0, len(chunk))
		for i, k := range chunk {
			if found[i] {
				pairs = append(pairs, wire.KV{Key: k, Value: values[i]})
			}
		}
		if len(pairs) > 0 {
			if err := dst.MSet(pairs); err != nil {
				return keys, copied, fmt.Errorf("cluster: installing slot %d on node %d: %w", slot, to, err)
			}
		}
		copied += len(pairs)
	}
	return keys, copied, nil
}

// MoveSlot hands slot from node `from` to node `to`: drain from's in-flight
// requests, CopySlot, flip ring ownership, then delete the keys from the
// old owner.
//
// The copy-then-flip-then-delete order means a write that lands on the old
// owner between the copy and the flip is lost — the same at-least-once
// cache semantics the client's retry path already has. What the order
// guarantees is no read-miss storm: at every instant one node can serve
// the slot's keys.
func (c *Client) MoveSlot(lister KeyLister, slot, from, to, chunkSize int) (Move, error) {
	mv := Move{Slot: slot, From: from, To: to}
	c.DrainNode(from)

	keys, copied, err := c.CopySlot(lister, slot, from, to, chunkSize)
	if err != nil {
		return mv, err
	}
	mv.Keys = copied

	if err := c.ring.Move(slot, to); err != nil {
		return mv, err
	}
	src := c.NodeClient(from)
	for _, k := range keys {
		if _, err := src.Del(k); err != nil {
			return mv, fmt.Errorf("cluster: clearing slot %d off node %d: %w", slot, from, err)
		}
	}
	return mv, nil
}
