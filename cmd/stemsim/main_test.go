package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestSectionTimerUsesInjectedClock(t *testing.T) {
	var buf strings.Builder
	tick := int64(0)
	section := sectionTimer(&buf, func() int64 {
		tick += 1_500_000_000 // each clock read advances 1.5s
		return tick
	})
	done := section("Example section")
	done()
	got := buf.String()
	want := "==== Example section ====\n(1.5s)\n\n"
	if got != want {
		t.Fatalf("sectionTimer output = %q, want %q", got, want)
	}
}

// TestReplayMatchesLiveRun: recording N references of an analog and
// replaying the file is the same experiment as running the live generator —
// bit-identical Stats, MPKI, AMAT and CPI for the same scheme seed — and the
// measured portion is exactly N−warm accesses (the replay once ran the access
// at the warm boundary before the reset, measuring one fewer than it
// accounted).
func TestReplayMatchesLiveRun(t *testing.T) {
	const (
		n    = 60_000
		warm = n / 4
		seed = 0x57E4
	)
	geom := sim.Geometry{Sets: 256, Ways: 8, LineSize: 64}
	path := filepath.Join(t.TempDir(), "omnetpp.trc.gz")
	if err := recordTrace(path, "omnetpp", n, geom, seed); err != nil {
		t.Fatal(err)
	}
	refs, err := loadRefs(path, "", geom.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != n {
		t.Fatalf("loaded %d references, recorded %d", len(refs), n)
	}
	b, err := workloads.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"LRU", "STEM"} {
		replayed, err := experiments.NewScheme(scheme, geom, seed)
		if err != nil {
			t.Fatal(err)
		}
		got := experiments.Run(replayed, trace.NewFixed(refs), experiments.RunConfig{Geom: geom, Warmup: warm, Measure: n - warm})
		live, err := experiments.NewScheme(scheme, geom, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := experiments.Run(live, trace.NewGen(b.Workload, geom, seed),
			experiments.RunConfig{Geom: geom, Warmup: warm, Measure: n - warm})
		if got != want {
			t.Errorf("%s: replay diverged from the live run:\n got %+v\nwant %+v", scheme, got, want)
		}
		if got.Stats.Accesses != n-warm {
			t.Errorf("%s: measured %d accesses, want exactly %d", scheme, got.Stats.Accesses, n-warm)
		}
		if got.Stats.Misses == 0 || got.MPKI <= 0 {
			t.Errorf("%s: degenerate replay: %+v", scheme, got)
		}
	}
}

// invoke runs one stemsim command line in-process and returns its stdout.
func invoke(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := stemsim(args, &out)
	return out.String(), err
}

// parseCSV returns the records of a CSV stream of one or more tables
// (blank-line separated, so column counts may differ between tables).
func parseCSV(t *testing.T, what, text string) [][]string {
	t.Helper()
	r := csv.NewReader(strings.NewReader(text))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("%s: not CSV: %v\n%s", what, err, text)
	}
	return recs
}

// TestPaperRows runs every row of the experiment table at tiny sizes: each
// must yield at least one non-empty table, as CSV on stdout and as one file
// per table under -csvdir.
func TestPaperRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment of the paper, a few hundred tiny simulations")
	}
	for _, e := range rows {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := invoke(t, "paper", "-only", e.name, "-csv", "-csvdir", dir,
				"-warmup", "1000", "-measure", "4000", "-periods", "2", "-assocs", "2,4")
			if err != nil {
				t.Fatal(err)
			}
			if recs := parseCSV(t, "stdout", out); len(recs) < 2 || len(recs[0]) < 2 {
				t.Fatalf("stdout carries no table:\n%s", out)
			}
			if strings.Contains(out, "====") {
				t.Errorf("section banner in the CSV stream:\n%s", out)
			}
			files, err := filepath.Glob(filepath.Join(dir, e.name+"*.csv"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no %s*.csv under -csvdir (%v)", e.name, err)
			}
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				recs := parseCSV(t, f, string(b))
				if len(recs) < 2 || len(recs[0]) < 2 || recs[1][1] == "" {
					t.Errorf("%s: empty table:\n%s", f, b)
				}
				for _, rec := range recs {
					if len(rec) != len(recs[0]) {
						t.Errorf("%s: ragged row %q", f, rec)
					}
				}
			}
		})
	}
}

// TestVerbs drives run, record and list through the command line, and the
// text report of paper through a comma list of rows.
func TestVerbs(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "om.trc.gz")
	small := []string{"-sets", "256", "-ways", "8"}

	out, err := invoke(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"omnetpp    I ", "mcf        II ", "twolf      III ", "SRRIP, DRRIP, SKEW", "\nfig10 ", "\ntable3 "} {
		if !strings.Contains(out, want) {
			t.Errorf("list output lacks %q:\n%s", want, out)
		}
	}

	// The front door's contract: a recorded stream replays to exactly what
	// the live run printed.
	if out, err = invoke(t, append([]string{"record", "-bench", "omnetpp", "-n", "40000", "-o", trc}, small...)...); err != nil || !strings.Contains(out, "recorded 40000 references") {
		t.Fatalf("record: %q, %v", out, err)
	}
	live, err := invoke(t, append([]string{"run", "-bench", "omnetpp", "-schemes", "LRU,STEM", "-warmup", "10000", "-measure", "30000", "-csv"}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := invoke(t, append([]string{"run", "-replay", trc, "-schemes", "LRU,STEM", "-csv"}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	if live != replayed || len(parseCSV(t, "run -csv", live)) != 3 {
		t.Errorf("run -replay differs from the live run:\nlive:\n%s\nreplayed:\n%s", live, replayed)
	}

	// ... and a run cell is the cell experiments.RunWorkload computes for
	// every experiment matrix: same stream seed, same scheme seed.
	omnetpp, err := workloads.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunWorkload(omnetpp.Workload, "STEM", experiments.RunConfig{
		Geom: sim.Geometry{Sets: 256, Ways: 8, LineSize: 64}, Warmup: 10_000, Measure: 30_000, Seed: 0x57E4})
	if err != nil {
		t.Fatal(err)
	}
	if cell := fmt.Sprintf("STEM,%.6g,%.6g,", want.MissRate, want.MPKI); !strings.Contains(live, cell) {
		t.Errorf("run -bench STEM row does not start %q:\n%s", cell, live)
	}

	// Text report, Dinero input, -o.
	din := filepath.Join(dir, "t.din")
	if err := os.WriteFile(din, []byte(strings.Repeat("0 1000\n1 2040\n0 30c0\n0 1000\n", 50)), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.txt")
	if out, err = invoke(t, "run", "-din", din, "-sets", "16", "-ways", "2", "-o", report); err != nil || out != "" {
		t.Fatalf("run -din -o: stdout %q, %v", out, err)
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"200 references", "150 measured (after 50 warm-up)", "miss-rate", "\nPELIFO ", "\nSTEM    hits "} {
		if !strings.Contains(string(b), want) {
			t.Errorf("run report lacks %q:\n%s", want, b)
		}
	}

	// The event log reconciles with the counters the report prints.
	events := filepath.Join(dir, "ev.jsonl")
	out, err = invoke(t, append([]string{"run", "-bench", "omnetpp", "-schemes", "STEM", "-warmup", "10000", "-measure", "30000", "-trace", events}, small...)...)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	spills := regexp.MustCompile(`spills (\d+)`).FindStringSubmatch(out)
	if n := strings.Count(string(ev), `"ev":"spill"`); spills == nil || n == 0 || strconv.Itoa(n) != spills[1] {
		t.Errorf("-trace holds %d spill events, the report says %v:\n%s", n, spills, out)
	}

	// A comma list runs each named row, in the order given.
	out, err = invoke(t, "paper", "-only", "table3,fig2")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?s)==== Table 3: .*overhead %\s+3\.\d+.*\(\d+\.\ds\)\n\n==== Figure 2: .*#3\s+1\.000.*\(\d+\.\ds\)\n\n$`).MatchString(out) {
		t.Errorf("paper -only table3,fig2 report:\n%s", out)
	}
}

// TestBadInvocations: a command line stemsim cannot honour is an error (a
// non-zero exit), never a silent empty run.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"sweep"},
		{"paper", "-only", "bogus"},
		{"paper", "-only", "fig2,bogus"},
		{"paper", "-only", "fig1", "-bench", "nope", "-periods", "1"},
		{"paper", "-only", "fig3", "-schemes", "LRU,NOPE", "-assocs", "2", "-warmup", "100", "-measure", "100"},
		{"paper", "-only", "table3", "-assocs", "4,x"},
		{"paper", "fig2"},
		{"run"},
		{"run", "-bench", "nope"},
		{"run", "-bench", "omnetpp", "-schemes", "NOPE"},
		{"run", "-bench", "omnetpp", "-replay", "x.trc"},
		{"run", "-replay", filepath.Join(t.TempDir(), "missing.trc")},
		{"run", "-bench", "omnetpp", "-quick"},
		// Geometry from the flags: an error, not a panic in a scheme.
		{"run", "-bench", "omnetpp", "-sets", "1"},
		{"run", "-bench", "omnetpp", "-sets", "3"},
		{"run", "-bench", "omnetpp", "-ways", "40000"},
		{"run", "-bench", "omnetpp", "-line", "48"},
		{"run", "-bench", "omnetpp", "-sets", "2", "-ways", "20000", "-schemes", "VWAY"},
		{"record", "-bench", "omnetpp", "-sets", "3", "-o", filepath.Join(t.TempDir(), "x.trc")},
		{"record", "-bench", "omnetpp"},
		{"record", "-bench", "nope", "-o", filepath.Join(t.TempDir(), "x.trc")},
	} {
		if out, err := invoke(t, args...); err == nil {
			t.Errorf("stemsim %v: no error; printed %q", args, out)
		}
	}
	// The valid names come from the table, so the error can list them.
	_, err := invoke(t, "paper", "-only", "bogus")
	if err == nil || !strings.Contains(err.Error(), strings.Join(experimentNames(), ", ")) {
		t.Errorf("unknown -only error does not list the experiments: %v", err)
	}
}
