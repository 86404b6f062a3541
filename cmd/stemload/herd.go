package main

// The thundering-herd scenario (-scenario herd): the read-through serving
// claim, measured end to end. A self-hosted STEM server fronts a deliberately
// slow fake origin; every round, herdWorkers goroutines (spread over as many
// client instances, i.e. separate connection pools, the way separate
// processes would look to the server) slam one cold key simultaneously.
// Without stampede protection each round would cost ~workers origin
// fetches; with the OpLoad lease protocol it must cost ~1. The scenario
// reports the measured origin-fetch amplification
//
//	amplification = origin_calls / rounds
//
// (1.0 = perfect dedup; the claim is ≤ 1.05, i.e. at most one duplicate fetch
// in twenty rounds, slack for a broken-lease retry) and then exercises
// stale-while-revalidate: with the key past its freshness deadline and the
// origin gated shut, every worker must still be answered — from the stale
// value, with zero origin calls on any foreground path — while exactly one
// elected background refresh waits on the gate.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/stemcache"
)

// The herd's shape. Fixed: no caller ever ran another.
const (
	// herdWorkers is the herd size per round (concurrent GetOrLoad callers,
	// each on its own client).
	herdWorkers = 64
	// herdRounds is how many cold keys the herd stampedes in turn.
	herdRounds = 20
	// herdOriginDelay is the fake origin's service time — long enough that
	// the whole herd arrives while the first fetch is still in flight.
	herdOriginDelay = 20 * time.Millisecond
)

// herdResult is the herd scenario's result document.
type herdResult struct {
	Workers int `json:"workers"`
	Rounds  int `json:"rounds"`
	// OriginCalls counts fake-origin fetches across all cold rounds;
	// Amplification is OriginCalls/Rounds (1.0 = perfect dedup).
	OriginCalls   int64   `json:"origin_calls"`
	Amplification float64 `json:"amplification"`
	Seconds       float64 `json:"seconds"`
	// StaleReturns counts workers answered from the stale value while the
	// origin was gated shut; StaleForegroundCalls counts origin fetches any
	// of those foreground paths performed (the SWR contract: 0).
	StaleReturns         int   `json:"stale_returns"`
	StaleForegroundCalls int64 `json:"stale_foreground_origin_calls"`
	// Server-side counters after the run (from STATS): Loads/LoadDedup are
	// the server's lease-table view, StaleServed (the cache's counter)
	// confirms the stale window actually served.
	Loads       uint64 `json:"loads"`
	LoadDedup   uint64 `json:"load_dedup"`
	StaleServed uint64 `json:"stale_served"`
}

// herdScenario runs both phases against a fresh self-hosted server sized by
// cfg.Capacity and cfg.Seed.
func herdScenario(cfg loadConfig) (any, []claim, error) {
	res, err := runHerd(cfg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("herd          %d workers x %d rounds, origin delay %v\n",
		res.Workers, res.Rounds, herdOriginDelay)
	fmt.Printf("origin calls  %d  (amplification %.3f; 1.000 = perfect dedup)\n",
		res.OriginCalls, res.Amplification)
	fmt.Printf("dedup         %d loads, %d deduplicated server-side\n", res.Loads, res.LoadDedup)
	fmt.Printf("swr           %d stale returns, %d foreground origin calls, %d served stale\n",
		res.StaleReturns, res.StaleForegroundCalls, res.StaleServed)
	return res, []claim{
		atMost("origin_amplification", res.Amplification, 1.05),
		exactly("stale_foreground_origin_calls", float64(res.StaleForegroundCalls), 0),
		exactly("stale_returns", float64(res.StaleReturns), herdWorkers),
		atLeast("stale_served", float64(res.StaleServed), 1),
		atLeast("load_dedup", float64(res.LoadDedup), 1),
	}, nil
}

// runHerd is the measurement: phase 1 stampedes herdRounds cold keys, phase 2
// reads one stale key with the origin gated shut.
func runHerd(cfg loadConfig) (herdResult, error) {
	// Stale-while-revalidate geometry: fresh for 50ms, then stale for a
	// minute — phase 2 crosses the freshness deadline by sleeping, which on
	// a loaded CI machine only ever makes the key *more* stale.
	node, err := cluster.StartNode(0, cluster.NodeConfig{
		Cache: stemcache.Config{
			Capacity: cfg.Capacity,
			Seed:     cfg.Seed,
			LoadTTL:  50 * time.Millisecond,
			StaleTTL: time.Minute,
		},
		Server: server.Config{LeaseWait: 30 * time.Second},
	})
	if err != nil {
		return herdResult{}, err
	}
	defer node.Close()

	clients := make([]*client.Client, herdWorkers)
	for i := range clients {
		cl, err := client.New(client.Config{Addr: node.Addr(), PoolSize: 1})
		if err != nil {
			return herdResult{}, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	var res herdResult
	res.Workers, res.Rounds = herdWorkers, herdRounds

	// Phase 1: cold-key stampedes. A distinct key per round keeps the
	// arithmetic exact: every round is a guaranteed miss, so a perfect
	// lease costs exactly one origin fetch per round.
	var originCalls atomic.Int64
	payload := []byte("origin-payload")
	origin := func(ctx context.Context, key string) ([]byte, error) {
		originCalls.Add(1)
		time.Sleep(herdOriginDelay)
		return payload, nil
	}
	t0 := wallClock()
	for r := 0; r < herdRounds; r++ {
		key := fmt.Sprintf("herd:%d", r)
		var wg sync.WaitGroup
		errC := make(chan error, herdWorkers)
		for w := 0; w < herdWorkers; w++ {
			wg.Add(1)
			go func(cl *client.Client) {
				defer wg.Done()
				v, err := cl.GetOrLoad(context.Background(), key, origin)
				if err != nil {
					errC <- err
				} else if string(v) != string(payload) {
					errC <- fmt.Errorf("key %s: got %q", key, v)
				}
			}(clients[w])
		}
		wg.Wait()
		close(errC)
		for err := range errC {
			return res, err
		}
	}
	res.Seconds = wallClock().Sub(t0).Seconds()
	res.OriginCalls = originCalls.Load()
	res.Amplification = float64(res.OriginCalls) / float64(herdRounds)

	// Phase 2: stale-while-revalidate. The hot key goes stale; the origin
	// is gated shut. Every worker returning at all proves its foreground
	// path never fetched — a foreground fetch would block on the gate.
	gate := make(chan struct{})
	var gateClosed atomic.Bool
	gateClosed.Store(true)
	var foreground atomic.Int64
	swrOrigin := func(ctx context.Context, key string) ([]byte, error) {
		if gateClosed.Load() {
			foreground.Add(1) // provisional: the elected refresher deducts itself below
		}
		<-gate
		return payload, nil
	}
	warm := func(ctx context.Context, key string) ([]byte, error) { return payload, nil }
	if _, err := clients[0].GetOrLoad(context.Background(), "swr:hot", warm); err != nil {
		return res, err
	}
	time.Sleep(80 * time.Millisecond) // cross the 50ms freshness deadline

	var wg sync.WaitGroup
	errC := make(chan error, herdWorkers)
	for w := 0; w < herdWorkers; w++ {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			v, err := cl.GetOrLoad(context.Background(), "swr:hot", swrOrigin)
			if err != nil {
				errC <- err
			} else if string(v) != string(payload) {
				errC <- fmt.Errorf("stale read: got %q", v)
			}
		}(clients[w])
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		return res, err
	}
	res.StaleReturns = herdWorkers
	// Exactly one background refresher is allowed to be parked on the gate;
	// anything beyond that was a foreground fetch.
	res.StaleForegroundCalls = max(foreground.Load()-1, 0)
	gateClosed.Store(false)
	close(gate) // release the refresher so client Close does not hang

	snap, err := serverStats(clients[0])
	if err != nil {
		return res, err
	}
	res.Loads = snap.Loads
	res.LoadDedup = snap.LoadDedup
	res.StaleServed = snap.Cache.StaleServed
	return res, nil
}
