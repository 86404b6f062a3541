package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// stream is the synthetic emission-order event sequence the timeline tests
// window: a prologue slow request, then two view epochs — a failover (its
// backfill's replica_place events precede node_dead, as the manager emits
// them) and a join — with slow requests interleaved the way one serialized
// tracer would emit them.
var stream = []obs.Event{
	{Type: obs.EvSlowRequest, Tick: 10, Set: -1, Op: "get", Micros: 900, Trace: 0xaa},
	{Type: obs.EvReplicaPlace, Tick: 2, Set: 7, ScS: 0, Partner: 2, Life: 42},
	{Type: obs.EvNodeDead, Tick: 2, Set: 1, Life: 2},
	{Type: obs.EvReplicaPromote, Tick: 2, Set: 7, ScS: 1, Partner: 0},
	{Type: obs.EvReplicaPromote, Tick: 2, Set: 9, ScS: 1, Partner: 2},
	{Type: obs.EvSlowRequest, Tick: 120, Set: -1, Op: "get", Micros: 1500, Trace: 0xbb},
	{Type: obs.EvSlowRequest, Tick: 130, Set: -1, Op: "set", Micros: 500, Trace: 0},
	{Type: obs.EvSpill, Tick: 131, Set: 3, Partner: 9}, // unrelated mechanism event: ignored
	{Type: obs.EvNodeJoin, Tick: 3, Set: 3, Life: 3},
	{Type: obs.EvSlowRequest, Tick: 250, Set: -1, Op: "get", Micros: 3000, Trace: 0xcc},
	{Type: obs.EvSlowRequest, Tick: 251, Set: -1, Op: "get", Micros: 3000, Trace: 0xdd},
	{Type: obs.EvSlowRequest, Tick: 252, Set: -1, Op: "mget", Micros: 7000, Trace: 0xee},
}

func TestBuildTimelineWindows(t *testing.T) {
	ws := buildTimeline(stream, 2)
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3 (prologue + 2 view epochs): %+v", len(ws), ws)
	}

	pre := ws[0]
	if pre.Epoch != -1 || pre.Slow != 1 || pre.Traced != 1 || pre.MaxMicros != 900 {
		t.Errorf("prologue window wrong: %+v", pre)
	}

	e2 := ws[1]
	if e2.Epoch != 2 || len(e2.Membership) != 3 || e2.Membership["replica_place"] != 1 ||
		e2.Membership["node_dead"] != 1 || e2.Membership["replica_promote"] != 2 {
		t.Errorf("view 2 membership tallies wrong: %+v", e2)
	}
	if e2.Slow != 2 || e2.Traced != 1 || e2.MaxMicros != 1500 || e2.MeanMicros != 1000 {
		t.Errorf("view 2 slow tallies wrong: %+v", e2)
	}
	if e2.SlowOps["get"] != 1 || e2.SlowOps["set"] != 1 {
		t.Errorf("view 2 slow ops wrong: %v", e2.SlowOps)
	}

	e3 := ws[2]
	if e3.Epoch != 3 || len(e3.Membership) != 1 || e3.Membership["node_join"] != 1 || e3.Slow != 3 || e3.Traced != 3 {
		t.Errorf("view 3 tallies wrong: %+v", e3)
	}
	// top=2 keeps the two worst; the 3000us tie broke on trace id.
	if len(e3.Worst) != 2 || e3.Worst[0].Trace != 0xee || e3.Worst[1].Trace != 0xcc {
		t.Errorf("view 3 worst traces wrong: %+v", e3.Worst)
	}
	if e3.SlowOps["get"] != 2 || e3.SlowOps["mget"] != 1 {
		t.Errorf("view 3 slow ops wrong: %v", e3.SlowOps)
	}
}

// TestBuildTimelineQuietStream: an event stream with membership events but
// zero slow requests must analyze cleanly (the common healthy case), as
// must an empty stream.
func TestBuildTimelineQuietStream(t *testing.T) {
	quiet := []obs.Event{
		{Type: obs.EvNodeLeave, Tick: 1, Set: 2, Life: 4},
		{Type: obs.EvReplicaPlace, Tick: 1, Set: 3, Life: 5},
	}
	ws := buildTimeline(quiet, 3)
	if len(ws) != 1 || ws[0].Slow != 0 || ws[0].MeanMicros != 0 || len(ws[0].Worst) != 0 {
		t.Errorf("quiet stream: %+v", ws)
	}
	if ws[0].SlowOps != nil {
		t.Errorf("quiet stream grew a slow-op tally: %v", ws[0].SlowOps)
	}
	if ws := buildTimeline(nil, 3); len(ws) != 0 {
		t.Errorf("empty stream produced windows: %+v", ws)
	}
}

// TestRunEndToEnd writes a real JSONL trace through the tracer, analyzes it
// through run(), and checks the JSON document round trip.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "events.jsonl")
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	for _, e := range stream {
		tr.Event(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "report.json")
	if err := run([]string{tracePath}, 3, outPath); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var tls []fileTimeline
	if err := json.Unmarshal(b, &tls); err != nil {
		t.Fatal(err)
	}
	if len(tls) != 1 || tls[0].Events != len(stream) || len(tls[0].Windows) != 3 {
		t.Fatalf("report wrong: %+v", tls)
	}
	if w := tls[0].Windows[2]; len(w.Worst) != 3 || w.Worst[0].Micros != 7000 {
		t.Errorf("worst traces lost in JSON round trip: %+v", w.Worst)
	}

	// A missing file is an error, not a panic.
	if err := run([]string{filepath.Join(dir, "absent.jsonl")}, 3, ""); err == nil {
		t.Error("run succeeded on a missing trace file")
	}
}
