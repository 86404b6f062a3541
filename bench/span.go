package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A span is one timed interval of a traced run. Spans are recorded only from
// this package, around calls into a layer's public functions; the two
// "derived" kinds are cut out of a client call's interval using the timings
// the server echoes on a traced response (also public). Spans of one
// operation share its op id and hang off that operation's root span.
type span struct {
	kind   spanKind
	parent int32 // index in the same log; -1 for an operation's root
	op     uint32
	start  int64 // ns on the benchmark clock
	end    int64
}

type spanKind uint8

const (
	spOp spanKind = iota // root: one operation (or one chunk of ns-scale calls)
	spClientGet
	spClientSet
	spClientBatch
	spServer // derived: server queue+handle, on the server's clock
	spNet    // derived: client round trip minus spServer
	spCacheGet
	spCacheSet
	spCacheDelete
	spClusterGet
	spClusterSet
	spClusterMGet
	spCoreAccess
	nSpanKinds
)

// spanNames name the spans; all but the root's are budget rows too. The
// root's self time is the budget's "unattributed" row: what no layer call
// covers — the harness's own key lookup, value check, span bookkeeping and
// clock reads.
var spanNames = [nSpanKinds]string{
	"op", "client.get", "client.set", "client.batch_do",
	"server.queue_handle", "client.net",
	"stemcache.get", "stemcache.set", "stemcache.delete",
	"cluster.get", "cluster.set", "cluster.mget", "core.access",
}

// spanLog is one worker's spans, appended in start order by that worker
// alone and read only after the run.
type spanLog struct{ spans []span }

// newSpanLog makes room for n spans up front: growing a log of millions of
// spans inside a timed loop would stall the worker for tens of milliseconds.
func newSpanLog(n int) *spanLog { return &spanLog{spans: make([]span, 0, n)} }

func (l *spanLog) add(kind spanKind, parent int32, op uint32, start, end int64) int32 {
	l.spans = append(l.spans, span{kind: kind, parent: parent, op: op, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// addEcho cuts a client call's span into the server's share and the rest of
// the round trip, from the trace echo's microsecond timings.
func (l *spanLog) addEcho(call int32, op uint32, echo *echoSink) {
	serverNs, netNs := echo.take()
	s := l.spans[call]
	mid := s.start + netNs/2
	l.add(spNet, call, op, s.start, s.start+netNs)
	l.add(spServer, call, op, mid, mid+serverNs)
}

// budgetRow is one line of the "where does the time go" table.
type budgetRow struct {
	name        string
	selfNsPerOp float64
	share       float64
}

// budget is a traced phase folded into self time per layer.
type budget struct {
	perOp     float64 // mean ns per unit of work
	calls     int64   // units of work the roots covered (ops, or calls inside chunks)
	rows      []budgetRow
	tailShare float64
}

// fold computes each kind's self time — a span's duration minus what its
// children cover — over every log. Operations slower than the phase's p99
// are kept out of the layer rows and summed into one tail row: their time is
// real but says nothing about where a typical operation goes. callsPerRoot
// converts root spans into the unit the table is per.
func fold(logs []*spanLog, callsPerRoot float64) budget {
	rootDur := newHist()
	for _, l := range logs {
		for _, s := range l.spans {
			if s.parent < 0 {
				rootDur.record(s.end - s.start)
			}
		}
	}
	tailNs := rootDur.quantile(0.99)
	var self [nSpanKinds]float64
	var tail, total float64
	var roots int64
	for _, l := range logs {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		slow := false
		for i, s := range l.spans {
			d := s.end - s.start
			if s.parent < 0 {
				roots++
				total += float64(d)
				slow = float64(d) > tailNs
			}
			own := float64(max(d-child[i], 0))
			if slow {
				tail += own
			} else {
				self[s.kind] += own
			}
		}
	}
	b := budget{calls: int64(float64(roots) * callsPerRoot)}
	if roots == 0 {
		return b
	}
	b.perOp = total / float64(b.calls)
	var attributed float64
	for k := spanKind(1); k < nSpanKinds; k++ {
		if self[k] > 0 {
			b.rows = append(b.rows, budgetRow{name: spanNames[k], selfNsPerOp: self[k] / float64(b.calls)})
			attributed += self[k]
		}
	}
	sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].selfNsPerOp > b.rows[j].selfNsPerOp })
	b.rows = append(b.rows,
		budgetRow{name: "unattributed", selfNsPerOp: (total - attributed - tail) / float64(b.calls)},
		budgetRow{name: "tail_gt_p99", selfNsPerOp: tail / float64(b.calls)})
	for i := range b.rows {
		b.rows[i].share = b.rows[i].selfNsPerOp / b.perOp
	}
	b.tailShare = tail / total
	return b
}

// String renders the budget; the rows sum to the mean time per unit.
func (b budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-24s %14s %8s\n", "layer", "self_ns_per_op", "share")
	var sum float64
	for _, r := range b.rows {
		fmt.Fprintf(&sb, "  %-24s %14.1f %7.1f%%\n", r.name, r.selfNsPerOp, 100*r.share)
		sum += r.selfNsPerOp
	}
	fmt.Fprintf(&sb, "  %-24s %14.1f %7.1f%%  (mean ns per op over %d ops)\n", "sum", sum, 100*sum/b.perOp, b.calls)
	return sb.String()
}

// maxSpansWritten bounds the span file: a traced serve run holds a few
// million spans, and the file is for looking at individual operations, not
// for recomputing the budget.
const maxSpansWritten = 200_000

// writeSpans writes the logs as tab-separated lines under outDir: every span
// of every k-th operation, k chosen so the file stays under the bound.
func writeSpans(outDir, workload string, logs []*spanLog) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, workload+".spans.tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	total := 0
	for _, l := range logs {
		total += len(l.spans)
	}
	every := uint32(total/maxSpansWritten + 1)
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\tspan\tparent\top\tname\tstart_ns\tend_ns")
	for wi, l := range logs {
		for i, s := range l.spans {
			if s.op%every == 0 {
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", wi, i, s.parent, s.op, spanNames[s.kind], s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
