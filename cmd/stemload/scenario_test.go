package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarios runs every row of the scenario table at test size and fails
// on any claim that does not hold. The claims and their bounds live in the
// scenarios; this table only sizes the runs, names the claims each row must
// state (so one cannot silently disappear), and checks the shape of the
// cache-aside documents.
func TestScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("drives loopback servers and clusters for tens of thousands of ops")
	}
	rows := map[string]struct {
		cfg    loadConfig
		claims []string
		shape  func(t *testing.T, results []result)
	}{
		"compare": {
			cfg:    loadConfig{Dist: "mixed", Ops: 40_001, Conns: 2, Capacity: 1 << 10, ValueSize: 64, Seed: 0x57E4},
			claims: []string{"stem_minus_lru_server_hit_rate"},
			shape: func(t *testing.T, results []result) {
				if results[0].Engine != "stem" || results[1].Engine != "lru" {
					t.Errorf("engines = %q, %q; want stem, lru", results[0].Engine, results[1].Engine)
				}
				for _, r := range results {
					// 40001 does not divide by 2 workers: the remainder must run.
					if r.Ops != 40_001 || r.Server.Cache.Gets != 40_001 {
						t.Errorf("%s: executed %d GETs (server saw %d), want exactly 40001", r.Engine, r.Ops, r.Server.Cache.Gets)
					}
				}
			},
		},
		"latency": {
			// Rate far above what a loopback round trip can sustain, so the
			// open pass runs saturated from the first arrivals.
			cfg: loadConfig{Dist: "mixed", Ops: 8_000, Conns: 2, Capacity: 1 << 10, ValueSize: 64, Seed: 0x57E4,
				Rate: 5_000_000, TraceEvery: 8},
			claims: []string{"open_minus_closed_p99_us", "passes_with_disordered_quantiles", "min_ops_per_sec", "min_trace_samples"},
			shape: func(t *testing.T, results []result) {
				if results[0].Mode != "closed" || results[1].Mode != "open" {
					t.Errorf("modes = %q, %q; want closed, open", results[0].Mode, results[1].Mode)
				}
				for _, r := range results {
					if r.Engine != "stem" {
						t.Errorf("engine %q, want stem", r.Engine)
					}
					if r.Seconds <= 0 || r.TraceSamples == 0 {
						t.Errorf("%s: report lost fields: %v s, %d trace samples", r.Mode, r.Seconds, r.TraceSamples)
					}
				}
			},
		},
		"herd": {
			cfg:    loadConfig{Ops: 1, Conns: 1, Capacity: 1 << 12, Seed: 0x57E4},
			claims: []string{"origin_amplification", "stale_foreground_origin_calls", "stale_returns", "stale_served", "load_dedup"},
		},
		"tenants": {
			cfg: loadConfig{Ops: 60_000, Conns: 1, Capacity: 2048, ValueSize: 32, Seed: 0x57E4},
			claims: []string{"arbitrated_minus_static_hit_rate", "arbitrated_minus_observe_jain", "arbitrated_target_sum",
				"quiet_target", "targets_moved_off_static_split", "tenants_with_diverged_streams"},
		},
		"failover": {
			cfg:    loadConfig{Ops: 1, Conns: 1, Capacity: 4096, Seed: 33},
			claims: []string{"lost_acked_writes", "promoted_slots", "hit_rate_delta_pp", "failover_hit_rate"},
		},
		"scaleout": {
			cfg:    loadConfig{Ops: 1, Conns: 1, Capacity: 4096, Seed: 33},
			claims: []string{"slots_moved", "slots_moved_minus_bound", "lost_keys", "scaled_minus_static_hit_rate"},
		},
	}
	if len(rows) != len(scenarios) {
		t.Fatalf("test sizes %d scenarios, the table has %d (%s)", len(rows), len(scenarios), strings.Join(scenarioNames(), ", "))
	}
	for _, sc := range scenarios {
		row, ok := rows[sc.name]
		if !ok {
			t.Fatalf("scenario %q has no test size", sc.name)
		}
		t.Run(sc.name, func(t *testing.T) {
			// run is the CLI path: it fails on a claim that does not hold,
			// and writes the envelope the shape checks read back.
			path := filepath.Join(t.TempDir(), "report.json")
			if err := run(sc, row.cfg, path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Bench, Scenario string
				Result          json.RawMessage
				Claims          []claim
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Bench != "stemload" || doc.Scenario != sc.name {
				t.Errorf("envelope names %q/%q, want stemload/%s", doc.Bench, doc.Scenario, sc.name)
			}
			var names []string
			for _, c := range doc.Claims {
				names = append(names, c.Name)
				t.Logf("%-40s %g %s %g", c.Name, c.Measured, c.Op, c.Bound)
			}
			if got, want := strings.Join(names, " "), strings.Join(row.claims, " "); got != want {
				t.Errorf("claims stated:\n  %s\nwant:\n  %s", got, want)
			}
			if row.shape != nil {
				var results []result
				if err := json.Unmarshal(doc.Result, &results); err != nil {
					t.Fatal(err)
				}
				if len(results) != 2 {
					t.Fatalf("%d passes in the result document, want 2", len(results))
				}
				row.shape(t, results)
			}
		})
	}
}

// TestBrokenClaimFailsRun: a scenario whose result violates one of its claims
// makes run return an error (the CLI's non-zero exit) naming the claim — after
// the report is written, so the evidence survives.
func TestBrokenClaimFailsRun(t *testing.T) {
	sc := scenario{"rigged", func(loadConfig) (any, []claim, error) {
		return "doc", []claim{atMost("fine", 1, 2), atLeast("too_low", 1, 2), exactly("off_by_one", 1, 2)}, nil
	}}
	path := filepath.Join(t.TempDir(), "report.json")
	err := run(sc, loadConfig{Ops: 1, Conns: 1}, path)
	if err == nil {
		t.Fatal("run accepted a result that violates two claims")
	}
	for _, want := range []string{"2 of 3", "too_low", "off_by_one"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "fine") {
		t.Errorf("error %q names the claim that holds", err)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("report not written before failing: %v", rerr)
	}
	if !strings.Contains(string(b), `"holds": false`) {
		t.Errorf("report does not record the failed claim:\n%s", b)
	}

	sc.run = func(loadConfig) (any, []claim, error) { return "doc", []claim{atMost("fine", 1, 2)}, nil }
	if err := run(sc, loadConfig{Ops: 1, Conns: 1}, ""); err != nil {
		t.Errorf("run rejected a result whose claims all hold: %v", err)
	}
}

// TestSelectScenario: an unknown -scenario (and a bare invocation) lists the
// valid names; the three targets exclude each other.
func TestSelectScenario(t *testing.T) {
	for _, args := range [][3]string{
		{"", "", "nope"},
		{"", "", ""},
		{":1", "", "herd"},
		{":1", ":2,:3", ""},
	} {
		_, err := selectScenario(args[0], args[1], args[2])
		if err == nil {
			t.Errorf("selectScenario(%q) succeeded", args)
			continue
		}
		for _, name := range scenarioNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("selectScenario(%q) error %q does not list scenario %q", args, err, name)
			}
		}
	}
	if _, err := selectScenario("", "", "nope"); !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown-scenario error %q does not echo the name given", err)
	}
	for _, name := range scenarioNames() {
		sc, err := selectScenario("", "", name)
		if err != nil || sc.name != name {
			t.Errorf("selectScenario(%q) = %q, %v", name, sc.name, err)
		}
	}
	for _, args := range [][2]string{{":1", ""}, {"", ":1,:2"}} {
		if _, err := selectScenario(args[0], args[1], ""); err != nil {
			t.Errorf("selectScenario(%q) = %v", args, err)
		}
	}
}
