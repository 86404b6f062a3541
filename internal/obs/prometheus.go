package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// Prometheus text-format exposition (version 0.0.4) of a Registry — the
// scrape-friendly sibling of the JSON snapshot. Mapping:
//
//   - Counter, derived counter → `# TYPE n counter` + one sample
//   - Gauge/func  → `# TYPE n gauge` + one sample
//   - LatencyHistogram → `# TYPE n histogram` + cumulative
//     `n_bucket{le="..."}` series over the populated log-linear buckets,
//     `+Inf`, `n_sum`, `n_count`
//
// Metric names are sanitized to the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and any other illegal runes become
// underscores, and a leading digit is prefixed with one. The registry's
// dotted names ("server.lat.get.decode_us") therefore scrape as
// "server_lat_get_decode_us".

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a registry metric name to the Prometheus grammar.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	b := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b = append(b, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b = append(b, '_')
			}
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// promFloat renders a float the way Prometheus clients do: shortest
// round-trippable decimal, with the special values spelled +Inf/-Inf/NaN.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promBucket is one cumulative histogram line: counts of samples ≤ bound.
type promBucket struct {
	bound uint64
	cum   uint64
}

// writePromHistogram renders one histogram family: cumulative buckets over
// the populated bounds, +Inf, sum and count. Populated-only buckets keep the
// output proportional to the distribution's spread, not the bucket table;
// cumulative counts make dropping empty buckets lossless for quantile math.
func writePromHistogram(w io.Writer, name string, buckets []promBucket, sum, count uint64) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for _, b := range buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.bound, b.cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, count)
	return err
}

// latBuckets folds a LatencyHistogram into cumulative (bound, count) pairs.
func latBuckets(h *LatencyHistogram) (buckets []promBucket, cum uint64) {
	for i := 0; i < latNumBuckets; i++ {
		c := h.Bucket(i)
		if c == 0 {
			continue
		}
		cum += c
		buckets = append(buckets, promBucket{bound: LatencyBucketBound(i), cum: cum})
	}
	return buckets, cum
}

// WritePrometheus writes the registry in Prometheus text exposition format.
// Families are emitted in sorted sanitized-name order, so the output is
// stable. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type family struct {
		name   string
		metric any
	}
	metrics := r.read()
	fams := make([]family, 0, len(metrics))
	for n, m := range metrics {
		fams = append(fams, family{name: promName(n), metric: m})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		var err error
		switch m := f.metric.(type) {
		case uint64:
			if _, err = fmt.Fprintf(bw, "# TYPE %s counter\n", f.name); err == nil {
				_, err = fmt.Fprintf(bw, "%s %d\n", f.name, m)
			}
		case float64:
			if _, err = fmt.Fprintf(bw, "# TYPE %s gauge\n", f.name); err == nil {
				_, err = fmt.Fprintf(bw, "%s %s\n", f.name, promFloat(m))
			}
		case *LatencyHistogram:
			buckets, _ := latBuckets(m)
			err = writePromHistogram(bw, f.name, buckets, m.Sum(), m.Count())
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PromHandler returns an http.Handler serving the text exposition — mounted
// at /metrics/prometheus by Serve, next to the JSON view. Safe on a nil
// registry (serves an empty exposition).
func (r *Registry) PromHandler() http.Handler {
	if r == nil {
		return promHandler(nil)
	}
	return promHandler(r)
}

// promHandler serves r's text exposition (empty for nil).
func promHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = r.WritePrometheus(w)
	})
}
