package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestNilMetricSinksAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Latency("z") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	r.CounterFuncs(func(emit func(string, uint64)) { t.Fatal("nil registry read a source") })
	if r.Snapshot() != nil || r.Names() != nil {
		t.Fatal("nil registry snapshot")
	}
}

// TestNilReceiverMethods holds the nil-receiver guarantee (package doc, rule
// 1) on every exported method of the metric cells and the registry,
// including methods added later: called on nil, none may panic. Arguments
// are zero values, except that a writer gets io.Discard and a response
// writer a recorder, so a panic is the method's and not its argument's. A
// returned http.Handler is served too.
func TestNilReceiverMethods(t *testing.T) {
	arg := func(typ reflect.Type) reflect.Value {
		switch typ {
		case reflect.TypeFor[io.Writer]():
			return reflect.ValueOf(io.Discard)
		case reflect.TypeFor[http.ResponseWriter]():
			return reflect.ValueOf(httptest.NewRecorder())
		}
		return reflect.Zero(typ)
	}
	for _, recv := range []any{(*Counter)(nil), (*Gauge)(nil), (*LatencyHistogram)(nil), (*Registry)(nil)} {
		v := reflect.ValueOf(recv)
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Type().Method(i)
			t.Run(v.Type().Elem().Name()+"."+m.Name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("panics on a nil receiver: %v", p)
					}
				}()
				args := make([]reflect.Value, m.Type.NumIn()-1) // In(0) is the receiver
				for j := range args {
					args[j] = arg(m.Type.In(j + 1))
				}
				for _, out := range v.Method(i).Call(args) {
					if h, ok := out.Interface().(http.Handler); ok {
						h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
					}
				}
			})
		}
	}
}

// TestRegistryTypeMismatchPanics holds the registry's invariant — a name maps
// to one metric type for its whole life — on every registration path, the
// derived ones included: a derived gauge or counter must not silently replace
// a cell, nor a cell a derived metric.
func TestRegistryTypeMismatchPanics(t *testing.T) {
	gaugeFn := func() float64 { return 1 }
	derive := func(r *Registry, names ...string) {
		r.CounterFuncs(func(emit func(string, uint64)) {
			for _, n := range names {
				emit(n, 1)
			}
		})
	}
	cases := []struct {
		name          string
		first, second func(r *Registry)
	}{
		{"counter then gauge", func(r *Registry) { r.Counter("m") }, func(r *Registry) { r.Gauge("m") }},
		{"counter then latency", func(r *Registry) { r.Counter("m") }, func(r *Registry) { r.Latency("m") }},
		{"counter then GaugeFunc", func(r *Registry) { r.Counter("m") }, func(r *Registry) { r.GaugeFunc("m", gaugeFn) }},
		{"counter then CounterFuncs", func(r *Registry) { r.Counter("m") }, func(r *Registry) { derive(r, "ok", "m") }},
		{"GaugeFunc then CounterFuncs", func(r *Registry) { r.GaugeFunc("m", gaugeFn) }, func(r *Registry) { derive(r, "m") }},
		{"CounterFuncs then GaugeFunc", func(r *Registry) { derive(r, "m") }, func(r *Registry) { r.GaugeFunc("m", gaugeFn) }},
		{"CounterFuncs then counter", func(r *Registry) { derive(r, "m") }, func(r *Registry) { r.Counter("m") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			c.first(r)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on type mismatch")
				}
			}()
			c.second(r)
		})
	}

	// Same type twice is not a mismatch: a derived gauge is replaced, derived
	// counters add up.
	r := NewRegistry()
	r.GaugeFunc("g", func() float64 { return 1 })
	r.GaugeFunc("g", func() float64 { return 2 })
	derive(r, "c")
	derive(r, "c")
	if snap := r.Snapshot(); snap["g"] != 2.0 || snap["c"] != uint64(2) {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestCounterFuncs: derived counters are read once per registry read, sum
// across the sources that share a name, and come out of both views as
// counters.
func TestCounterFuncs(t *testing.T) {
	r := NewRegistry()
	reads := 0
	requests := uint64(3)
	r.CounterFuncs(func(emit func(string, uint64)) {
		reads++
		emit("srv.requests", requests)
		emit("srv.errors", 10)
	})
	r.CounterFuncs(func(emit func(string, uint64)) { emit("srv.requests", 4) })
	reads = 0 // registration reads a source once, to learn its names

	snap := r.Snapshot()
	if snap["srv.requests"] != uint64(7) || snap["srv.errors"] != uint64(10) {
		t.Fatalf("snapshot = %v", snap)
	}
	if reads != 1 {
		t.Fatalf("source read %d times for one snapshot, want 1", reads)
	}
	requests = 5 // the component counted two more; nothing was pushed
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE srv_requests counter\nsrv_requests 9\n", "# TYPE srv_errors counter\nsrv_errors 10\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	if reads != 2 {
		t.Fatalf("source read %d times for two reads, want 2", reads)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(9)
	r.Gauge("g").Set(2)
	r.Latency("h").Observe(100)
	r.GaugeFunc("derived", func() float64 { return 42 })
	r.CounterFuncs(func(emit func(string, uint64)) { emit("summed", 7) })
	snap := r.Snapshot()
	if snap["c"] != uint64(9) || snap["g"] != 2.0 || snap["derived"] != 42.0 || snap["summed"] != uint64(7) {
		t.Fatalf("snapshot = %v", snap)
	}
	want := []string{"c", "derived", "g", "h", "summed"}
	if got := r.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestRegistryJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("JSON output not stable")
	}
	var m map[string]any
	if err := json.Unmarshal(buf1.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("decoded %d metrics, want 2", len(m))
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Latency("h").Observe(uint64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Type: EvDecouple, Tick: 99, Set: 7, Partner: 3, ScS: 2, ScT: 1, Life: 1234}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"ev":"decouple"`)) {
		t.Fatalf("event type not symbolic: %s", b)
	}
	var out Event
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	var bad Event
	if err := json.Unmarshal([]byte(`{"ev":"nope"}`), &bad); err == nil {
		t.Fatal("expected error on unknown event type")
	}
}

func TestJSONLTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	events := []Event{
		{Type: EvCouple, Tick: 1, Set: 4, Partner: 9, ScS: 15},
		{Type: EvSpill, Tick: 2, Set: 4, Partner: 9},
		{Type: EvSnapshot, Tick: 3, Set: -1, Snap: &Snapshot{Tick: 3, Stats: sim.Stats{Accesses: 3, Hits: 1, Misses: 2}}},
	}
	for _, e := range events {
		tr.Event(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	if got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("events differ: %+v", got[:2])
	}
	if got[2].Snap == nil || got[2].Snap.Stats.Misses != 2 {
		t.Fatalf("snapshot payload lost: %+v", got[2])
	}
}

type captureObs struct{ events []Event }

func (c *captureObs) Event(e Event) { c.events = append(c.events, e) }

func TestRegistryObserver(t *testing.T) {
	r := NewRegistry()
	next := &captureObs{}
	ro := NewRegistryObserver(r, next)
	ro.Event(Event{Type: EvSpill})
	ro.Event(Event{Type: EvSpill})
	ro.Event(Event{Type: EvDecouple, Life: 500})
	if got := r.Counter("events.spill").Value(); got != 2 {
		t.Fatalf("events.spill = %d", got)
	}
	if got := r.Latency("events.couple_lifetime").Count(); got != 1 {
		t.Fatalf("lifetime samples = %d", got)
	}
	if len(next.events) != 3 {
		t.Fatalf("forwarded %d events", len(next.events))
	}
}

func TestOptionsPublish(t *testing.T) {
	var nilOpts *Options
	if nilOpts.Enabled() {
		t.Fatal("nil options enabled")
	}
	nilOpts.Publish(Snapshot{}) // must not panic

	reg := NewRegistry()
	capTr := &captureObs{}
	var cbTicks []uint64
	o := &Options{
		Registry:   reg,
		Tracer:     capTr,
		OnSnapshot: func(sn Snapshot) { cbTicks = append(cbTicks, sn.Tick) },
	}
	if !o.Enabled() {
		t.Fatal("options not enabled")
	}
	o.Publish(Snapshot{
		Tick:     500,
		Stats:    sim.Stats{Accesses: 500, Hits: 300, Misses: 200, Spills: 7},
		MissRate: 0.4,
		MPKI:     3.2,
		Scheme:   &SchemeState{Takers: 2, Givers: 2, Coupled: 4, PolicySets: map[string]int{"LRU": 6, "BIP": 2}},
	})
	if reg.Gauge("run.tick").Value() != 500 || reg.Gauge("run.spills").Value() != 7 {
		t.Fatal("registry gauges not published")
	}
	if reg.Gauge("sets.coupled").Value() != 4 || reg.Gauge("sets.policy.BIP").Value() != 2 {
		t.Fatal("scheme gauges not published")
	}
	if len(capTr.events) != 1 || capTr.events[0].Type != EvSnapshot || capTr.events[0].Snap == nil {
		t.Fatalf("tracer events = %+v", capTr.events)
	}
	if len(cbTicks) != 1 || cbTicks[0] != 500 {
		t.Fatalf("callback ticks = %v", cbTicks)
	}
}

func TestServeMetricsHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("run.accesses").Add(123)
	srv, err := Serve("127.0.0.1:0", reg, true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics body not JSON: %v\n%s", err, body)
	}
	if m["run.accesses"] != 123.0 {
		t.Fatalf("run.accesses = %v", m["run.accesses"])
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

func TestStartTool(t *testing.T) {
	if tool, err := StartTool(ToolConfig{}); err != nil || tool != nil {
		t.Fatalf("empty config: tool=%v err=%v", tool, err)
	}
	if tool := (*Tool)(nil); tool.Options() != nil || tool.Close() != nil {
		t.Fatal("nil tool must be inert")
	}
	if _, err := StartTool(ToolConfig{Pprof: true}); err == nil {
		t.Fatal("-pprof without -metrics must error")
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	tool, err := StartTool(ToolConfig{MetricsAddr: "127.0.0.1:0", TracePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if tool.server == nil || tool.server.Addr() == "" {
		t.Fatal("no metrics addr")
	}
	opts := tool.Options()
	if opts == nil || opts.Registry == nil || opts.Tracer == nil {
		t.Fatalf("tool options incomplete: %+v", opts)
	}
	if opts.SnapshotEvery != DefaultSnapshotEvery {
		t.Fatalf("SnapshotEvery = %d", opts.SnapshotEvery)
	}
	// The tracer chain must count into the registry and write JSONL.
	opts.Tracer.Event(Event{Type: EvCouple, Tick: 1, Set: 0, Partner: 1})
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(f)
	f.Close()
	if err != nil || len(events) != 1 || events[0].Type != EvCouple {
		t.Fatalf("trace file contents: %v %v", events, err)
	}
	if got := opts.Registry.Counter("events.couple").Value(); got != 1 {
		t.Fatalf("events.couple = %d", got)
	}
}

// TestToolFlags: the shared block registers -metrics always and the other
// three only where the tool has them, -trace under the tool's own help
// line; a tool without -snapshot-every takes no periodic snapshots.
func TestToolFlags(t *testing.T) {
	fs := flag.NewFlagSet("full", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := ToolFlags(fs, "full", ToolFlagSet{Pprof: true, Trace: true, TraceHelp: "event log", Snapshots: true})
	if err := fs.Parse([]string{"-metrics", ":1", "-pprof", "-trace", "e.jsonl", "-snapshot-every", "7"}); err != nil {
		t.Fatal(err)
	}
	if want := (ToolConfig{MetricsAddr: ":1", Pprof: true, TracePath: "e.jsonl", SnapshotEvery: 7, announce: "full"}); *cfg != want {
		t.Fatalf("parsed %+v, want %+v", *cfg, want)
	}
	if fs.Lookup("trace").Usage != "event log" {
		t.Fatal("-trace not registered under the tool's help line")
	}

	fs = flag.NewFlagSet("bare", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg = ToolFlags(fs, "bare", ToolFlagSet{})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := (ToolConfig{SnapshotEvery: -1, announce: "bare"}); *cfg != want {
		t.Fatalf("defaults %+v, want %+v", *cfg, want)
	}
	for _, name := range []string{"pprof", "trace", "snapshot-every"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s registered on a tool that does not have it", name)
		}
	}
}

func TestStartToolNegativeSnapshotDisables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.jsonl")
	tool, err := StartTool(ToolConfig{TracePath: path, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tool.Close()
	if every := tool.Options().SnapshotEvery; every != 0 {
		t.Fatalf("SnapshotEvery = %d, want 0", every)
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ty := EvShadowHit; ty <= EvSnapshot; ty++ {
		if s := ty.String(); strings.HasPrefix(s, "event(") {
			t.Fatalf("missing name for event %d", ty)
		}
	}
	if s := EventType(200).String(); s != fmt.Sprintf("event(%d)", 200) {
		t.Fatalf("unknown type string = %q", s)
	}
}
