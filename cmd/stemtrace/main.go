// Command stemtrace is the offline analyzer for `-trace` JSONL event
// streams: it joins the server's slow-request events against the cluster
// manager's membership events on one timeline, windowed by view epoch, so
// a latency spike can be read against the join, leave or failover that was
// under way when it happened.
//
// The join works because one tracer serializes all events: file order is
// emission order. A window opens at the first membership event of each view
// epoch (node_join, node_leave, node_dead, replica_promote and
// replica_place carry the epoch in Tick) and collects every slow request
// emitted until the next epoch begins; slow requests before the first
// epoch marker land in a prologue window. Traced slow requests surface
// their trace ids, which match the TraceID the client's OnTrace callback
// reported for the same operation — the end-to-end join.
//
// Usage:
//
//	stemtrace events.jsonl
//	stemtrace -top 5 node0.jsonl node1.jsonl
//	stemtrace -json report.json events.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	var (
		top      = flag.Int("top", 3, "worst traced slow requests to list per window")
		jsonPath = flag.String("json", "", `write the analysis as JSON to this file ("-" for stdout)`)
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "stemtrace: need at least one events.jsonl path")
		os.Exit(2)
	}
	if err := run(flag.Args(), *top, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "stemtrace:", err)
		os.Exit(1)
	}
}

// fileTimeline is one trace file's windowed analysis.
type fileTimeline struct {
	File    string   `json:"file"`
	Events  int      `json:"events"`
	Windows []window `json:"windows"`
}

// window aggregates one view epoch's worth of the event stream.
type window struct {
	// Epoch is the view epoch (a membership event's Tick); -1 marks the
	// prologue before the first membership event.
	Epoch int64 `json:"epoch"`
	// Membership tallies the epoch's membership events by name
	// ("node_dead", "replica_promote", ... → count).
	Membership map[string]int `json:"membership,omitempty"`
	// Slow counts slow-request events in the window; Traced is how many of
	// them carried a trace id.
	Slow   int `json:"slow"`
	Traced int `json:"traced,omitempty"`
	// MeanMicros/MaxMicros describe the slow requests' server-side time.
	MeanMicros float64 `json:"mean_us,omitempty"`
	MaxMicros  uint64  `json:"max_us,omitempty"`
	// SlowOps tallies slow requests by opcode name.
	SlowOps map[string]int `json:"slow_ops,omitempty"`
	// Worst lists the slowest traced requests, worst first, for joining
	// against client-side trace samples.
	Worst []slowTrace `json:"worst,omitempty"`

	sumMicros uint64
}

// slowTrace identifies one traced slow request.
type slowTrace struct {
	Trace  uint64 `json:"trace"`
	Op     string `json:"op"`
	Micros uint64 `json:"us"`
}

func run(paths []string, top int, jsonPath string) error {
	timelines := make([]fileTimeline, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		events, err := obs.ReadEvents(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		timelines = append(timelines, fileTimeline{
			File:    p,
			Events:  len(events),
			Windows: buildTimeline(events, top),
		})
	}

	for _, tl := range timelines {
		printTimeline(tl)
	}

	if jsonPath != "" {
		b, err := json.MarshalIndent(timelines, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if jsonPath == "-" {
			_, err = os.Stdout.Write(b)
			return err
		}
		return os.WriteFile(jsonPath, b, 0o644)
	}
	return nil
}

// buildTimeline windows an event stream by view epoch. File order is
// emission order, so a window is simply "everything between the first event
// of one epoch and the first event of the next"; slow requests inherit the
// window that was current when they were emitted.
func buildTimeline(events []obs.Event, top int) []window {
	var windows []window
	cur := -1 // index into windows; -1 = nothing open yet
	open := func(epoch int64) *window {
		if cur >= 0 && windows[cur].Epoch == epoch {
			return &windows[cur]
		}
		windows = append(windows, window{Epoch: epoch})
		cur = len(windows) - 1
		return &windows[cur]
	}
	for i := range events {
		e := &events[i]
		switch e.Type {
		case obs.EvNodeJoin, obs.EvNodeLeave, obs.EvNodeDead, obs.EvReplicaPromote, obs.EvReplicaPlace:
			w := open(int64(e.Tick))
			if w.Membership == nil {
				w.Membership = map[string]int{}
			}
			w.Membership[e.Type.String()]++
		case obs.EvSlowRequest:
			var w *window
			if cur >= 0 {
				w = &windows[cur]
			} else {
				w = open(-1) // prologue: slow requests before any epoch
			}
			w.Slow++
			w.sumMicros += e.Micros
			if e.Micros > w.MaxMicros {
				w.MaxMicros = e.Micros
			}
			if w.SlowOps == nil {
				w.SlowOps = map[string]int{}
			}
			w.SlowOps[e.Op]++
			if e.Trace != 0 {
				w.Traced++
				w.Worst = append(w.Worst, slowTrace{Trace: e.Trace, Op: e.Op, Micros: e.Micros})
			}
		}
	}
	for i := range windows {
		w := &windows[i]
		if w.Slow > 0 {
			w.MeanMicros = float64(w.sumMicros) / float64(w.Slow)
		}
		// Worst traced requests first; ties broken by trace id so the
		// output is stable for identical timings.
		sort.Slice(w.Worst, func(a, b int) bool {
			if w.Worst[a].Micros != w.Worst[b].Micros {
				return w.Worst[a].Micros > w.Worst[b].Micros
			}
			return w.Worst[a].Trace < w.Worst[b].Trace
		})
		if top >= 0 && len(w.Worst) > top {
			w.Worst = w.Worst[:top]
		}
	}
	return windows
}

// printTimeline renders one file's windows as a text table.
func printTimeline(tl fileTimeline) {
	fmt.Printf("%s: %d events, %d windows\n", tl.File, tl.Events, len(tl.Windows))
	if len(tl.Windows) == 0 {
		fmt.Println()
		return
	}
	fmt.Printf("  %8s %6s %6s %10s %10s  %s\n",
		"epoch", "slow", "trcd", "mean_us", "max_us", "membership / worst traces")
	for _, w := range tl.Windows {
		epoch := fmt.Sprintf("%d", w.Epoch)
		if w.Epoch < 0 {
			epoch = "pre"
		}
		fmt.Printf("  %8s %6d %6d %10.1f %10d  %s\n",
			epoch, w.Slow, w.Traced, w.MeanMicros, w.MaxMicros, windowDetail(w))
	}
	fmt.Println()
}

// windowDetail renders the membership tally and the worst traces
// compactly, in deterministic order.
func windowDetail(w window) string {
	var out string
	for _, name := range sortedKeys(w.Membership) {
		out += fmt.Sprintf("%s:%d ", name, w.Membership[name])
	}
	for _, st := range w.Worst {
		out += fmt.Sprintf("%#x(%s %dus) ", st.Trace, st.Op, st.Micros)
	}
	if out == "" {
		return "-"
	}
	return out[:len(out)-1]
}

// sortedKeys returns m's keys in sorted order (map range order is not
// deterministic; report output must be).
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
