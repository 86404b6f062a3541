// Package tracefile reads and writes reference traces, so the simulator can
// run recorded workloads (e.g. converted from pin/ChampSim/Dinero tooling)
// instead of the synthetic analogs.
//
// Two formats are supported, both optionally gzip-compressed (detected on
// read by magic bytes, selected on write by a ".gz" suffix):
//
//   - The native binary format: a 16-byte header ("STEMTRC1", line-size
//     uint32, reserved uint32) followed by 16-byte little-endian records
//     (block uint64, instrs uint32, flags uint32; flag bit 0 = write). It
//     round-trips trace.Ref exactly.
//
//   - Dinero-style text ("din"): whitespace-separated "<label> <hex-addr>"
//     lines, where label 0 = read, 1 = write, 2 = instruction fetch.
//     Addresses are byte addresses; instruction counts are synthesized at
//     one instruction per reference, matching Dinero's model. Lines
//     starting with '#' and blank lines are skipped.
package tracefile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// magic identifies the native binary format, version 1.
var magic = [8]byte{'S', 'T', 'E', 'M', 'T', 'R', 'C', '1'}

const recordSize = 16

// flag bits of a binary record.
const (
	flagWrite = 1 << iota
	flagInstrFetch
)

// Header carries the trace-wide metadata of the native format.
type Header struct {
	// LineSize is the cache-line size the block addresses are relative to.
	LineSize uint32
}

// Writer emits the native binary format.
type Writer struct {
	w     *bufio.Writer
	gz    *gzip.Writer
	under io.Closer
	buf   [recordSize]byte
}

// NewWriter writes a native trace with the given header to w. If w is also
// an io.Closer, Close closes it.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	tw := &Writer{}
	if c, ok := w.(io.Closer); ok {
		tw.under = c
	}
	out := w
	bw := bufio.NewWriter(out)
	tw.w = bw
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], h.LineSize)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	return tw, nil
}

// Create opens path for writing (gzip-compressed when the name ends in
// ".gz") and writes the header.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		w, err := NewWriter(gz, h)
		if err != nil {
			f.Close()
			return nil, err
		}
		w.gz = gz
		w.under = f
		return w, nil
	}
	return NewWriter(f, h)
}

// Append writes one reference.
func (w *Writer) Append(r trace.Ref) error {
	binary.LittleEndian.PutUint64(w.buf[0:], r.Block)
	binary.LittleEndian.PutUint32(w.buf[8:], r.Instrs)
	var flags uint32
	if r.Write {
		flags |= flagWrite
	}
	binary.LittleEndian.PutUint32(w.buf[12:], flags)
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("tracefile: appending record: %w", err)
	}
	return nil
}

// Close flushes and closes every layer.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("tracefile: flushing: %w", err)
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			return fmt.Errorf("tracefile: closing gzip: %w", err)
		}
	}
	if w.under != nil {
		if err := w.under.Close(); err != nil {
			return fmt.Errorf("tracefile: closing: %w", err)
		}
	}
	return nil
}

// Reader iterates a native binary trace.
type Reader struct {
	r      *bufio.Reader
	closer io.Closer
	hdr    Header
	buf    [recordSize]byte
}

// NewReader reads a native trace from r (transparently gunzipping). If r is
// also an io.Closer, Close closes it.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{}
	if c, ok := r.(io.Closer); ok {
		tr.closer = c
	}
	br := bufio.NewReader(r)
	// Transparent gzip: sniff the two magic bytes.
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("tracefile: opening gzip: %w", err)
		}
		br = bufio.NewReader(gz)
	}
	tr.r = br
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, errors.New("tracefile: not a STEM trace (bad magic)")
	}
	tr.hdr.LineSize = binary.LittleEndian.Uint32(hdr[8:12])
	return tr, nil
}

// Next returns the next reference, or io.EOF at the end of the trace.
func (r *Reader) Next() (trace.Ref, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return trace.Ref{}, io.EOF
		}
		return trace.Ref{}, fmt.Errorf("tracefile: reading record: %w", err)
	}
	flags := binary.LittleEndian.Uint32(r.buf[12:])
	return trace.Ref{
		Block:  binary.LittleEndian.Uint64(r.buf[0:]),
		Instrs: binary.LittleEndian.Uint32(r.buf[8:]),
		Write:  flags&flagWrite != 0,
	}, nil
}

// Close closes the underlying file if any.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// ReadAll slurps an entire native trace.
func ReadAll(r io.Reader) (Header, []trace.Ref, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var refs []trace.Ref
	for {
		ref, err := tr.Next()
		if err == io.EOF {
			return tr.hdr, refs, nil
		}
		if err != nil {
			return tr.hdr, refs, err
		}
		refs = append(refs, ref)
	}
}

// ParseDin reads a Dinero-style text trace. lineSize converts byte
// addresses to block addresses; instruction fetches (label 2) are folded
// into the instruction counts of subsequent data references rather than
// emitted, matching how this repository's LLC-level harness consumes
// traces.
func ParseDin(r io.Reader, lineSize int) ([]trace.Ref, error) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("tracefile: bad line size %d", lineSize)
	}
	shift := 0
	for 1<<shift < lineSize {
		shift++
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var refs []trace.Ref
	pending := uint32(1) // instructions attributed to the next data ref
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("tracefile: din line %d: want 'label addr', got %q", lineNo, line)
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("tracefile: din line %d: bad label %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("tracefile: din line %d: bad address %q", lineNo, fields[1])
		}
		switch label {
		case 0, 1:
			refs = append(refs, trace.Ref{
				Block:  addr >> uint(shift),
				Write:  label == 1,
				Instrs: pending,
			})
			pending = 1
		case 2:
			pending++ // an instruction fetch advances the instruction count
		default:
			return nil, fmt.Errorf("tracefile: din line %d: unknown label %d", lineNo, label)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracefile: scanning din: %w", err)
	}
	return refs, nil
}

// Record captures n references from a generator into w.
func Record(w *Writer, gen trace.Generator, n int) error {
	for i := 0; i < n; i++ {
		if err := w.Append(gen.Next()); err != nil {
			return err
		}
	}
	return nil
}
