package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Introspection-server hardening. The endpoint is meant for operators and
// scrapers on a trusted network, but it still must not be the process's
// weakest link: without header/idle timeouts a single slowloris-style
// connection (headers dripped one byte at a time, or a keep-alive socket
// parked forever) pins a goroutine and a file descriptor indefinitely.
// Package vars rather than consts so the drain tests can shrink them.
var (
	// serveReadHeaderTimeout bounds reading one request's headers.
	serveReadHeaderTimeout = 5 * time.Second
	// serveIdleTimeout closes keep-alive connections with no next request.
	serveIdleTimeout = 60 * time.Second
	// serveDrainTimeout bounds Close's graceful drain of in-flight requests
	// before the remaining connections are cut.
	serveDrainTimeout = 2 * time.Second
)

// Server is a live introspection endpoint: the registry as JSON at /metrics
// (and /), Prometheus text exposition at /metrics/prometheus, optionally the
// net/http/pprof handlers under /debug/pprof/.
type Server struct {
	srv  *http.Server
	addr string
}

// Serve starts an HTTP server on addr (e.g. ":6060") exposing reg. When
// withPprof is set the standard profiling handlers are mounted too. The
// server runs on its own goroutine until Close.
func Serve(addr string, reg *Registry, withPprof bool) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.Handle("/metrics/prometheus", reg.PromHandler())
	mux.Handle("/", reg)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: serveReadHeaderTimeout,
			IdleTimeout:       serveIdleTimeout,
		},
		addr: ln.Addr().String(),
	}
	// Serve returns when Close shuts the http.Server down; Close is the join.
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close drains the server: the listener stops accepting, in-flight requests
// get serveDrainTimeout to finish and flush, and connections still busy
// afterwards are closed forcibly. Idempotent.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Grace expired (or the context tripped): cut the stragglers.
		return s.srv.Close()
	}
	return nil
}
