package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// ToolConfig is the observability surface shared by the cmd tools: the
// -metrics/-pprof/-trace/-snapshot-every flags map onto it 1:1.
type ToolConfig struct {
	// MetricsAddr, when non-empty, serves the live metrics registry (JSON)
	// on this address.
	MetricsAddr string
	// Pprof additionally mounts /debug/pprof on the metrics server.
	Pprof bool
	// TracePath, when non-empty, streams mechanism events as JSONL to this
	// file ("-" for stdout).
	TracePath string
	// SnapshotEvery is the access interval between run snapshots; 0 takes
	// the default (100 000), negative disables periodic snapshots.
	SnapshotEvery int

	// announce, set by ToolFlags, is the tool name StartTool reports the
	// bound metrics address under on stderr.
	announce string
}

// ToolFlagSet names the members of the shared flag block a tool has beyond
// -metrics: not every tool has every sink.
type ToolFlagSet struct {
	// Pprof registers -pprof.
	Pprof bool
	// Trace registers -trace, the event-log path, with TraceHelp as its
	// usage line (what the events are differs by tool).
	Trace     bool
	TraceHelp string
	// Snapshots registers -snapshot-every. A tool without it takes no
	// periodic run snapshots (servers expose /metrics instead).
	Snapshots bool
}

// ToolFlags registers the cmd tools' observability flag block on fs and
// returns the ToolConfig the flags fill, to hand to StartTool once fs is
// parsed. tool is the program's name, under which StartTool announces the
// metrics address.
func ToolFlags(fs *flag.FlagSet, tool string, has ToolFlagSet) *ToolConfig {
	cfg := &ToolConfig{announce: tool, SnapshotEvery: -1}
	fs.StringVar(&cfg.MetricsAddr, "metrics", "", `serve live metrics JSON on this address (e.g. ":6060")`)
	if has.Pprof {
		fs.BoolVar(&cfg.Pprof, "pprof", false, "with -metrics, also serve /debug/pprof")
	}
	if has.Trace {
		fs.StringVar(&cfg.TracePath, "trace", "", has.TraceHelp)
	}
	if has.Snapshots {
		fs.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "accesses between run snapshots (0 = default, negative = off)")
	}
	return cfg
}

// DefaultSnapshotEvery is the periodic snapshot interval the cmd tools use
// unless overridden.
const DefaultSnapshotEvery = 100_000

// Tool bundles the live observability sinks of one cmd-tool invocation.
type Tool struct {
	Registry *Registry
	tracer   *JSONLTracer
	server   *Server
	file     *os.File
	opts     *Options
}

// StartTool materializes a ToolConfig: opens the trace file, starts the
// metrics server, and assembles the Options to hand to the run harness. It
// returns (nil, nil) when the config enables nothing, so callers can gate
// on a nil Tool.
func StartTool(cfg ToolConfig) (*Tool, error) {
	if cfg.MetricsAddr == "" && cfg.TracePath == "" {
		if cfg.Pprof {
			return nil, fmt.Errorf("obs: -pprof requires -metrics ADDR")
		}
		return nil, nil
	}
	t := &Tool{}
	if cfg.MetricsAddr != "" {
		t.Registry = NewRegistry()
		srv, err := Serve(cfg.MetricsAddr, t.Registry, cfg.Pprof)
		if err != nil {
			return nil, err
		}
		t.server = srv
	} else if cfg.Pprof {
		return nil, fmt.Errorf("obs: -pprof requires -metrics ADDR")
	}
	if cfg.TracePath != "" {
		var w io.Writer
		if cfg.TracePath == "-" {
			w = os.Stdout
		} else {
			f, err := os.Create(cfg.TracePath)
			if err != nil {
				if t.server != nil {
					t.server.Close()
				}
				return nil, err
			}
			t.file, w = f, f
		}
		t.tracer = NewJSONLTracer(w)
	}
	every := cfg.SnapshotEvery
	switch {
	case every == 0:
		every = DefaultSnapshotEvery
	case every < 0:
		every = 0
	}
	var sink Observer
	if t.tracer != nil {
		sink = t.tracer
	}
	if t.Registry != nil {
		sink = NewRegistryObserver(t.Registry, sink)
	}
	t.opts = &Options{Registry: t.Registry, Tracer: sink, SnapshotEvery: every}
	if cfg.announce != "" && t.server != nil {
		fmt.Fprintf(os.Stderr, "%s: metrics at http://%s/metrics\n", cfg.announce, t.server.Addr())
	}
	return t, nil
}

// Options returns the run-harness options; nil on a nil Tool, so
// `tool.Options()` is always safe to pass through.
func (t *Tool) Options() *Options {
	if t == nil {
		return nil
	}
	return t.opts
}

// Close flushes the trace file and stops the metrics server.
func (t *Tool) Close() error {
	if t == nil {
		return nil
	}
	var first error
	if t.tracer != nil {
		if err := t.tracer.Close(); err != nil {
			first = err
		}
	}
	if t.file != nil {
		if err := t.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	if t.server != nil {
		if err := t.server.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
