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
// window: a prologue slow request, then two rebalancing epochs with demand
// polls, migrations and slow requests interleaved the way one serialized
// tracer would emit them.
var stream = []obs.Event{
	{Type: obs.EvSlowRequest, Tick: 10, Set: -1, Op: "get", Micros: 900, Trace: 0xaa},
	{Type: obs.EvNodeDemand, Tick: 1, Set: 0, Class: "giver"},
	{Type: obs.EvNodeDemand, Tick: 1, Set: 1, Class: "taker"},
	{Type: obs.EvSlotMigrate, Tick: 1, Set: 7, ScS: 0, Partner: 1, Life: 42},
	{Type: obs.EvSlowRequest, Tick: 120, Set: -1, Op: "get", Micros: 1500, Trace: 0xbb},
	{Type: obs.EvSlowRequest, Tick: 130, Set: -1, Op: "set", Micros: 500, Trace: 0},
	{Type: obs.EvSpill, Tick: 131, Set: 3, Partner: 9}, // unrelated mechanism event: ignored
	{Type: obs.EvNodeDemand, Tick: 2, Set: 0, Class: "neutral"},
	{Type: obs.EvNodeDemand, Tick: 2, Set: 1, Class: "neutral"},
	{Type: obs.EvSlowRequest, Tick: 250, Set: -1, Op: "get", Micros: 3000, Trace: 0xcc},
	{Type: obs.EvSlowRequest, Tick: 251, Set: -1, Op: "get", Micros: 3000, Trace: 0xdd},
	{Type: obs.EvSlowRequest, Tick: 252, Set: -1, Op: "mget", Micros: 7000, Trace: 0xee},
}

func TestBuildTimelineWindows(t *testing.T) {
	ws := buildTimeline(stream, 2)
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3 (prologue + 2 epochs): %+v", len(ws), ws)
	}

	pre := ws[0]
	if pre.Epoch != -1 || pre.Slow != 1 || pre.Traced != 1 || pre.MaxMicros != 900 {
		t.Errorf("prologue window wrong: %+v", pre)
	}

	e1 := ws[1]
	if e1.Epoch != 1 || e1.Demands != 2 || e1.Migrations != 1 || e1.KeysMoved != 42 {
		t.Errorf("epoch 1 mechanism tallies wrong: %+v", e1)
	}
	if e1.Slow != 2 || e1.Traced != 1 || e1.MaxMicros != 1500 || e1.MeanMicros != 1000 {
		t.Errorf("epoch 1 slow tallies wrong: %+v", e1)
	}
	if e1.NodeClasses["giver"] != 1 || e1.NodeClasses["taker"] != 1 {
		t.Errorf("epoch 1 classes wrong: %v", e1.NodeClasses)
	}
	if e1.SlowOps["get"] != 1 || e1.SlowOps["set"] != 1 {
		t.Errorf("epoch 1 slow ops wrong: %v", e1.SlowOps)
	}

	e2 := ws[2]
	if e2.Epoch != 2 || e2.Demands != 2 || e2.Slow != 3 || e2.Traced != 3 {
		t.Errorf("epoch 2 tallies wrong: %+v", e2)
	}
	// top=2 keeps the two worst; the 3000us tie broke on trace id.
	if len(e2.Worst) != 2 || e2.Worst[0].Trace != 0xee || e2.Worst[1].Trace != 0xcc {
		t.Errorf("epoch 2 worst traces wrong: %+v", e2.Worst)
	}
	if e2.SlowOps["get"] != 2 || e2.SlowOps["mget"] != 1 {
		t.Errorf("epoch 2 slow ops wrong: %v", e2.SlowOps)
	}
}

// TestBuildTimelineQuietStream: an event stream with mechanisms but zero
// slow requests must analyze cleanly (the common healthy case), as must an
// empty stream.
func TestBuildTimelineQuietStream(t *testing.T) {
	quiet := []obs.Event{
		{Type: obs.EvNodeDemand, Tick: 1, Set: 0, Class: "neutral"},
		{Type: obs.EvSlotMigrate, Tick: 1, Set: 3, Life: 5},
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
