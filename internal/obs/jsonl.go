package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONLTracer is an Observer that appends one JSON object per event to a
// writer — the `-trace events.jsonl` format of the cmd tools. It buffers
// internally; call Close (or Flush) before reading the output. Safe for
// concurrent use, so parallel runs may share one tracer.
type JSONLTracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLTracer wraps w in a buffered JSONL event sink.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLTracer{bw: bw, enc: json.NewEncoder(bw)}
}

// Event implements Observer. The first write error is sticky and reported
// by Flush/Close.
func (t *JSONLTracer) Event(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(e)
}

// Flush pushes buffered events to the underlying writer and returns the
// first error seen.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}

// Close flushes; it does not close the underlying writer (the caller owns
// it).
func (t *JSONLTracer) Close() error { return t.Flush() }

// ReadEvents parses a JSONL event stream back into memory — the replay half
// of the trace format, used by tests and offline analysis.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}
