package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promTestRegistry builds a registry with one metric of every kind and a
// deterministic fill, shared by the golden and lint tests.
func promTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("server.ops.get").Add(42)
	reg.Counter("1starts.with.digit").Inc()
	reg.Gauge("cache.fill").Set(0.75)
	reg.GaugeFunc("pool.size", func() float64 { return 3 })
	reg.CounterFuncs(func(emit func(string, uint64)) {
		emit("stemcache.hits", 9)
		emit("stemcache.spills", 2)
	})
	reg.CounterFuncs(func(emit func(string, uint64)) { emit("stemcache.hits", 1) })
	h := reg.Latency("events.couple_lifetime")
	for _, v := range []uint64{0, 1, 5, 5, 100, 3000} {
		h.Observe(v)
	}
	l := reg.Latency("server.lat.get.handle_us")
	for _, v := range []uint64{3, 17, 17, 40, 90, 1500, 1500, 250000} {
		l.Observe(v)
	}
	reg.Latency("client.lat.empty_us") // registered but never observed
	return reg
}

// TestWritePrometheusGolden pins the full text exposition byte-for-byte.
// Regenerate with `go test ./internal/obs -run Golden -update`.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusLint is a promtool-style check of the exposition: every
// line must satisfy the text-format grammar, TYPE must precede its family's
// samples, histogram buckets must be cumulative over sorted bounds ending in
// +Inf, and _count must equal the +Inf bucket.
func TestPrometheusLint(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := lintPromExposition(buf.String()); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, buf.String())
	}

	// A nil registry must still produce a valid (empty) exposition.
	var nilReg *Registry
	var empty bytes.Buffer
	if err := nilReg.WritePrometheus(&empty); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if empty.Len() != 0 {
		t.Fatalf("nil registry wrote %q", empty.String())
	}
}

// lintPromExposition validates text-format 0.0.4 output the way promtool
// check metrics would. It returns the first violation found.
func lintPromExposition(text string) error {
	typed := map[string]string{} // family → type
	type histState struct {
		lastBound   float64
		lastCum     uint64
		sawInf      bool
		infVal      uint64
		bucketCount int
	}
	hists := map[string]*histState{}
	sawSample := map[string]bool{}

	if !strings.HasSuffix(text, "\n") && text != "" {
		return fmt.Errorf("exposition must end in a newline")
	}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			if text == "" {
				break
			}
			return fmt.Errorf("line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			if !validPromName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := typed[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			if sawSample[name] {
				return fmt.Errorf("line %d: TYPE for %q after its samples", ln+1, name)
			}
			typed[name] = typ
			if typ == "histogram" {
				hists[name] = &histState{lastBound: -1}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value on sample %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := parsePromValue(valStr)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name, le, hasLE, err := splitPromSeries(series)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln+1, err)
		}
		if !validPromName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if _, ok := hists[base]; ok {
					family = base
				}
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
		sawSample[family] = true
		h := hists[family]
		switch {
		case h != nil && strings.HasSuffix(name, "_bucket"):
			if !hasLE {
				return fmt.Errorf("line %d: histogram bucket without le label", ln+1)
			}
			bound, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("line %d: bad le %q: %v", ln+1, le, err)
			}
			if h.sawInf {
				return fmt.Errorf("line %d: bucket after +Inf for %q", ln+1, family)
			}
			if bound <= h.lastBound {
				return fmt.Errorf("line %d: le %q not above previous bound", ln+1, le)
			}
			cum := uint64(val)
			if cum < h.lastCum {
				return fmt.Errorf("line %d: bucket counts not cumulative for %q", ln+1, family)
			}
			h.lastBound, h.lastCum = bound, cum
			h.bucketCount++
			if le == "+Inf" {
				h.sawInf, h.infVal = true, cum
			}
		case h != nil && strings.HasSuffix(name, "_count"):
			if !h.sawInf {
				return fmt.Errorf("line %d: %q has no +Inf bucket before _count", ln+1, family)
			}
			if uint64(val) != h.infVal {
				return fmt.Errorf("line %d: %s_count %v != +Inf bucket %d", ln+1, family, val, h.infVal)
			}
		}
	}
	for name, h := range hists {
		if !h.sawInf {
			return fmt.Errorf("histogram %q missing +Inf bucket", name)
		}
	}
	return nil
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return 0, nil // NaN is legal; treat as 0 for bound math (never emitted here)
	}
	return strconv.ParseFloat(s, 64)
}

// splitPromSeries parses `name` or `name{le="bound"}`, returning the name
// and the le label when present.
func splitPromSeries(series string) (name, le string, hasLE bool, err error) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series, "", false, nil
	}
	if !strings.HasSuffix(series, "}") {
		return "", "", false, fmt.Errorf("unterminated labels in %q", series)
	}
	name = series[:open]
	body := series[open+1 : len(series)-1]
	const pre = `le="`
	if !strings.HasPrefix(body, pre) || !strings.HasSuffix(body, `"`) {
		return "", "", false, fmt.Errorf("unsupported labels %q (only le)", body)
	}
	return name, body[len(pre) : len(body)-1], true, nil
}

// TestPromName pins the sanitizer's corner cases.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.lat.get.decode_us": "server_lat_get_decode_us",
		"1starts.with.digit":       "_1starts_with_digit",
		"ok_name:colon":            "ok_name:colon",
		"":                         "_",
		"héllo":                    "h__llo", // é is two UTF-8 bytes
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	for in := range cases {
		if !validPromName(promName(in)) {
			t.Errorf("promName(%q) = %q fails the grammar", in, promName(in))
		}
	}
}
