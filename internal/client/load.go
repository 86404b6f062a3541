package client

// Read-through loading: the client half of the OpLoad lease exchange (see
// internal/server/lease.go for the server half). GetOrLoad asks the server
// first; on a miss the server elects exactly one client process fleet-wide
// to consult the origin, so a thundering herd of clients costs one origin
// fetch. Stale values are served immediately, and at most one client
// refreshes them in the background.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// ErrNotFound is returned by GetOrLoad when the key is absent at the
// origin — reported by the origin directly, or by the server's cached
// negative marker without an origin round trip.
var ErrNotFound = errors.New("client: key not found")

// Origin fetches key from the system of record behind the cache. Returning
// an error wrapping ErrNotFound means "definitively absent" and is cached
// as a negative entry server-side; any other error is a fetch failure and
// caches nothing.
type Origin func(ctx context.Context, key string) ([]byte, error)

// GetOrLoad returns key's value, consulting origin through the server's
// lease protocol on a miss:
//
//   - fresh hit or cached negative: answered from the cache, origin untouched.
//   - miss: the server elects one asking client as leaseholder. If that is
//     this call, it runs origin and fills the cache (releasing every waiter);
//     otherwise the server parks this call until the leader's fill lands.
//   - stale hit: the stale value is returned immediately — origin is never
//     on this call's critical path — and if the server elected this client
//     to refresh, a background goroutine fetches and fills. Close waits for
//     those goroutines.
//
// Cancelling ctx abandons the call. If it held the fetch lease, the lease
// is left to expire: another client inherits it after the server's
// LeaseWait, so an abandoned lease stalls the key, never wedges it.
func (c *Client) GetOrLoad(ctx context.Context, key string, origin Origin) ([]byte, error) {
	if origin == nil {
		return nil, errors.New("client: nil origin")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.one(wire.Request{Op: wire.OpLoad, Key: key})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case wire.StatusOK:
		return resp.Value, nil
	case wire.StatusNotFound:
		return nil, ErrNotFound
	case wire.StatusStale:
		if resp.Token != 0 {
			// This client won the refresh lease. The refresh must outlive
			// the request that happened to trigger it, so it detaches from
			// ctx's cancellation (keeping its values).
			c.refreshWG.Add(1)
			go func(rctx context.Context, token uint64) {
				defer c.refreshWG.Done()
				c.fetchAndFill(rctx, key, token, origin)
			}(context.WithoutCancel(ctx), resp.Token)
		}
		return resp.Value, nil
	case wire.StatusLease:
		return c.fetchAndFill(ctx, key, resp.Token, origin)
	default:
		return nil, fmt.Errorf("%w: unexpected LOAD status %v", wire.ErrFrame, resp.Status)
	}
}

// fetchAndFill consults origin and installs its answer under the lease
// token. The caller's result is the origin's answer either way: a fill
// whose transport fails (or that the server refuses because the lease was
// broken meanwhile) costs the fleet a duplicate fetch later, not this
// caller its value.
func (c *Client) fetchAndFill(ctx context.Context, key string, token uint64, origin Origin) ([]byte, error) {
	v, err := origin(ctx, key)
	switch {
	case err == nil:
		c.one(wire.Request{Op: wire.OpLoad, Flags: wire.FlagFill, Token: token, Key: key, Value: v})
		return v, nil
	case errors.Is(err, ErrNotFound):
		c.one(wire.Request{Op: wire.OpLoad, Flags: wire.FlagFill | wire.FlagNegative, Token: token, Key: key})
		return nil, ErrNotFound
	default:
		return nil, err
	}
}
