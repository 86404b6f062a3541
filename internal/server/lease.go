package server

// Read-through leases: the server side of the OpLoad exchange.
//
// The lease table is the repository's one origin deduplicator: the cache
// only classifies and stores (stemcache's LookupLoad, SetLoaded and
// SetNegative), and the lease decides who fetches. On a miss the server
// elects the first asking connection as the key's leaseholder (StatusLease
// + token); that client fetches the origin and sends OpLoad|FlagFill with
// the token. Every other connection asking for the key meanwhile parks on
// the lease's done channel and re-classifies once the fill lands — so N
// client processes stampeding one cold key cost one origin fetch, the
// networked analogue of the paper's receiving constraint (a taker may
// borrow capacity, but never amplify pressure on the giver).
//
// Leases are leases, not locks: a waiter that has parked for LeaseWait
// breaks the incumbent (crashed or slow) and takes over, so a dead
// leaseholder stalls followers for one wait, never forever. Stale keys get
// the same treatment with serving inverted: every asker is answered with
// the stale value immediately (StatusStale), and the token — nonzero for
// exactly one of them — elects a single background refresher.

import (
	"time"

	"repro/internal/stemcache"
	"repro/internal/wire"
)

// lease is one key's outstanding origin fetch. The token proves authorship
// of the eventual fill; done is closed when the fill lands (or the lease is
// broken), waking every parked waiter to re-classify.
type lease struct {
	token uint64
	done  chan struct{}
	// filling marks the window between a fill's token validation and its
	// store landing in the cache. A filling lease cannot be broken, so the
	// token check and the store are atomic as far as takeover is concerned
	// even though leaseMu is never held across the cache call.
	filling bool
}

// leaseKey qualifies a lease table key with the request's namespace, so the
// same key loading in two tenants holds two independent leases. Every
// lease-table access for a request — acquire, refresh, break, fill — goes
// through this key. The default namespace uses the bare key (no
// allocation). A NUL-bearing key could collide with another tenant's
// join, which degrades to two requests sharing one lease — the loser
// re-classifies and takes over when the fill lands in the other namespace;
// cached data never crosses namespaces because fills store through the
// filler's own tenant view.
func leaseKey(req *wire.Request) string {
	if req.Namespace == "" {
		return req.Key
	}
	return req.Namespace + "\x00" + req.Key
}

// nextToken draws a fresh nonzero lease token (0 means "no lease held" in
// StatusStale responses).
func (s *Server) nextToken() uint64 {
	for {
		if t := s.leaseSeq.Add(1); t != 0 {
			return t
		}
	}
}

// acquireLease returns the key's lease and whether this caller created it
// (and so holds it). Rank: leaseMu only.
func (s *Server) acquireLease(key string) (l *lease, granted bool) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if l, ok := s.leases[key]; ok {
		return l, false
	}
	l = &lease{token: s.nextToken(), done: make(chan struct{})}
	s.leases[key] = l
	return l, true
}

// tryRefreshLease grants a refresh lease for a stale key, or returns 0 when
// one is already outstanding — at most one client refreshes a stale key no
// matter how many are being served its stale value.
func (s *Server) tryRefreshLease(key string) uint64 {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if _, ok := s.leases[key]; ok {
		return 0
	}
	l := &lease{token: s.nextToken(), done: make(chan struct{})}
	s.leases[key] = l
	return l.token
}

// breakLease replaces old — still the incumbent, or the call fails — with a
// fresh lease owned by the caller. The old done channel is closed so fellow
// waiters re-classify (and park on the new lease) instead of riding out
// their full timeout.
func (s *Server) breakLease(key string, old *lease) (token uint64, ok bool) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if s.leases[key] != old || old.filling {
		// Gone (the fill landed), changed hands, or mid-fill — in every
		// case the caller should re-classify rather than take over.
		return 0, false
	}
	nl := &lease{token: s.nextToken(), done: make(chan struct{})}
	s.leases[key] = nl
	close(old.done)
	s.leaseBreaks.Add(1)
	return nl.token, true
}

// handleLoad answers OpLoad. The response is one of:
//
//	StatusOK + value        fresh hit
//	StatusNotFound          cached negative (origin said absent, recently)
//	StatusStale + tok + val stale hit; tok != 0 elects the caller to refresh
//	StatusLease + tok       miss; the caller must fetch the origin and fill
//
// A miss whose lease is already held parks here until the leader fills,
// LeaseWait expires (the caller breaks the lease and inherits it), or the
// server shuts down. Parking holds this connection's goroutine, so
// pipelined requests behind an OpLoad on the same connection stall — the
// client keeps LOAD traffic on pooled connections for that reason.
func (s *Server) handleLoad(cache stemcache.TenantView[string, []byte], req *wire.Request, resp *wire.Response) {
	if req.Flags&wire.FlagFill != 0 {
		s.handleFill(cache, req, resp)
		return
	}
	s.loadReqs.Add(1)
	lk := leaseKey(req)
	waited := false
	for {
		v, state := cache.LookupLoad(req.Key)
		switch state {
		case stemcache.LoadHit:
			resp.Value = v
			return
		case stemcache.LoadNegative:
			s.negativeHits.Add(1)
			resp.Status = wire.StatusNotFound
			return
		case stemcache.LoadStale:
			s.staleServed.Add(1)
			resp.Status = wire.StatusStale
			resp.Value = v
			resp.Token = s.tryRefreshLease(lk)
			return
		}
		// Miss. First asker takes the lease; the rest park on it.
		l, granted := s.acquireLease(lk)
		if granted {
			resp.Status = wire.StatusLease
			resp.Token = l.token
			return
		}
		if !waited {
			// Counted once per request, however many rounds of parking it
			// takes: this request's origin fetch was saved by another's.
			s.loadDedups.Add(1)
			waited = true
		}
		select {
		case <-l.done:
			// Fill landed (or the lease was broken); re-classify.
		case <-time.After(s.cfg.LeaseWait):
			if tok, ok := s.breakLease(lk, l); ok {
				resp.Status = wire.StatusLease
				resp.Token = tok
				return
			}
			// Lost the break race; re-classify against whatever won.
		case <-s.quit:
			resp.Status = wire.StatusErr
			resp.Value = []byte("server: shutting down")
			return
		}
	}
}

// handleFill installs a leaseholder's origin answer. The fill is honored
// only while its token matches the key's live lease: a fill arriving after
// its lease was broken (and possibly refilled by the successor) answers
// StatusNotStored and stores nothing, so a slow ex-leaseholder can never
// clobber its successor's fresher fill. Marking the lease as filling before
// the store keeps takeover out of the validate-store window, and the value
// is stored before the lease is released so a woken waiter's
// re-classification finds it resident.
func (s *Server) handleFill(cache stemcache.TenantView[string, []byte], req *wire.Request, resp *wire.Response) {
	lk := leaseKey(req)
	s.leaseMu.Lock()
	cur, held := s.leases[lk]
	if !held || cur.token != req.Token {
		s.leaseMu.Unlock()
		resp.Status = wire.StatusNotStored
		return
	}
	cur.filling = true
	s.leaseMu.Unlock()

	if req.Flags&wire.FlagNegative != 0 {
		cache.SetNegative(req.Key)
	} else {
		cache.SetLoaded(req.Key, req.Value)
	}

	s.leaseMu.Lock()
	delete(s.leases, lk)
	s.leaseMu.Unlock()
	close(cur.done)
}
