package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServePrometheusEndpoint: the hardened server mounts the text
// exposition next to the JSON view.
func TestServePrometheusEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs").Add(7)
	srv, err := Serve("127.0.0.1:0", reg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	if want := "# TYPE reqs counter\nreqs 7\n"; string(body) != want {
		t.Errorf("body = %q, want %q", body, want)
	}
	if err := lintPromExposition(string(body)); err != nil {
		t.Errorf("served exposition fails lint: %v", err)
	}
}

// TestServeCloseDrainsInflight: Close must let a request already being
// served finish (and deliver its full body) before the listener dies.
func TestServeCloseDrainsInflight(t *testing.T) {
	reg := NewRegistry()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	reg.GaugeFunc("slow", func() float64 {
		// Snapshot calls this while serving /metrics; park the first call
		// until the test has initiated Close.
		if !once {
			once = true
			close(entered)
			<-release
		}
		return 1
	})
	srv, err := Serve("127.0.0.1:0", reg, false)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			got <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			got <- err
			return
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\"slow\"") {
			got <- fmt.Errorf("status %d body %q", resp.StatusCode, body)
			return
		}
		got <- nil
	}()

	<-entered // request is in the handler
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Close must not return while the request is parked (drain, not cut)...
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v before in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	// ...and once released, the client sees a complete 200.
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// New connections are refused after Close.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server accepted a request after Close")
	}
}

// TestServeSlowlorisTimeout: a connection that dribbles (or never sends)
// request headers is cut by ReadHeaderTimeout instead of pinning a
// goroutine forever.
func TestServeSlowlorisTimeout(t *testing.T) {
	defer func(h, d time.Duration) {
		serveReadHeaderTimeout, serveDrainTimeout = h, d
	}(serveReadHeaderTimeout, serveDrainTimeout)
	serveReadHeaderTimeout = 100 * time.Millisecond
	serveDrainTimeout = 100 * time.Millisecond

	srv, err := Serve("127.0.0.1:0", NewRegistry(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence — classic slowloris.
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}

	// ReadHeaderTimeout must terminate the connection promptly: the server
	// either sends "408 Request Timeout" and closes, or just closes. Either
	// way the read drains to EOF long before our 5 s deadline.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection not closed by server (read err %v); ReadHeaderTimeout not applied", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection lingered %v; ReadHeaderTimeout not applied", elapsed)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 4") {
		t.Fatalf("server answered a half-sent request: %q", got)
	}
}

// TestServeCloseIdempotent: double Close is safe.
func TestServeCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("second Close: %v", err)
	}
}
