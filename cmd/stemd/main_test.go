package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// TestRunAddrFileAndSlowRequestTrace boots stemd through run() the way the
// CI smoke does: -addr :0 with -addr-file for discovery, -trace JSONL with
// -slow-request low enough that every request is slow. A traced client's
// ids must come back out of the trace file as slow_request events.
func TestRunAddrFileAndSlowRequestTrace(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	traceFile := filepath.Join(dir, "events.jsonl")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run(runConfig{
			addr:        "127.0.0.1:0",
			capacity:    1 << 10,
			seed:        1,
			nodeID:      -1,
			tool:        obs.ToolConfig{TracePath: traceFile},
			slowRequest: time.Nanosecond,
			addrFile:    addrFile,
		}, stop)
	}()

	// The address file appears only after the listener is bound.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("addr file never appeared: %v", <-done)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var ids []uint64
	cl, err := client.New(client.Config{
		Addr:       addr,
		TraceEvery: 1,
		OnTrace:    func(s client.TraceSample) { ids = append(ids, s.TraceID) },
	})
	if err != nil {
		close(stop)
		t.Fatal(err)
	}
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get("k"); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// Drain: run() returns only after in-flight requests flushed and the
	// tool (including the JSONL tracer) closed.
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]bool{}
	for _, id := range ids {
		want[id] = true
	}
	if len(want) != 2 {
		t.Fatalf("client traced %d unique ops, want 2", len(want))
	}
	slow := 0
	for _, e := range events {
		if e.Type != obs.EvSlowRequest {
			continue
		}
		slow++
		if !want[e.Trace] {
			t.Errorf("slow_request trace id %#x not sent by the client", e.Trace)
		}
	}
	if slow != 2 {
		t.Errorf("trace file holds %d slow_request events, want 2", slow)
	}
}
