package tracefile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func sampleRefs(n int) []trace.Ref {
	rng := sim.NewRNG(7)
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{
			Block:  rng.Uint64() >> 20,
			Write:  rng.OneIn(3),
			Instrs: uint32(rng.Intn(100) + 1),
		}
	}
	return refs
}

func TestBinaryRoundTrip(t *testing.T) {
	refs := sampleRefs(1000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	hdr, got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.LineSize != 64 {
		t.Fatalf("header %+v", hdr)
	}
	if len(got) != len(refs) {
		t.Fatalf("%d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, got[i], refs[i])
		}
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(blocks []uint32, writes []bool) bool {
		var refs []trace.Ref
		for i, b := range blocks {
			w := i < len(writes) && writes[i]
			refs = append(refs, trace.Ref{Block: uint64(b), Write: w, Instrs: uint32(i%50) + 1})
		}
		if len(refs) == 0 {
			return true
		}
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, Header{LineSize: 64})
		if err != nil {
			return false
		}
		for _, r := range refs {
			if tw.Append(r) != nil {
				return false
			}
		}
		if tw.Close() != nil {
			return false
		}
		_, got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGzipFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.trc", "t.trc.gz"} {
		path := filepath.Join(dir, name)
		refs := sampleRefs(500)
		w, err := Create(path, Header{LineSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			ref, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ref != refs[n] {
				t.Fatalf("%s: ref %d mismatch", name, n)
			}
			n++
		}
		if n != 500 {
			t.Fatalf("%s: read %d refs", name, n)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("this is not a trace file....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("STEM")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestParseDin(t *testing.T) {
	input := `
# a comment
2 400
2 404
0 1000
1 1040
2 408
0 2fc0
`
	refs, err := ParseDin(strings.NewReader(input), 64)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Ref{
		{Block: 0x1000 / 64, Write: false, Instrs: 3}, // 1 base + 2 fetches
		{Block: 0x1040 / 64, Write: true, Instrs: 1},
		{Block: 0x2fc0 / 64, Write: false, Instrs: 2}, // 1 base + 1 fetch
	}
	if len(refs) != len(want) {
		t.Fatalf("%d refs, want %d: %+v", len(refs), len(want), refs)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("ref %d: %+v, want %+v", i, refs[i], want[i])
		}
	}
}

func TestParseDinHexPrefix(t *testing.T) {
	refs, err := ParseDin(strings.NewReader("0 0xFFC0"), 64)
	if err != nil || len(refs) != 1 || refs[0].Block != 0xFFC0/64 {
		t.Fatalf("refs %+v err %v", refs, err)
	}
}

func TestParseDinErrors(t *testing.T) {
	cases := map[string]string{
		"bad label":   "x 1000",
		"bad addr":    "0 zz",
		"short line":  "0",
		"weird label": "7 1000",
	}
	for name, input := range cases {
		if _, err := ParseDin(strings.NewReader(input), 64); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	if _, err := ParseDin(strings.NewReader("0 1000"), 48); err == nil {
		t.Error("bad line size accepted")
	}
}

func TestRecordFromGenerator(t *testing.T) {
	b, err := workloads.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGen(b.Workload, sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := Record(w, gen, 2000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, refs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(refs) != 2000 {
		t.Fatalf("read %d refs, err %v", len(refs), err)
	}
	// Replaying the recorded trace must reproduce the live run exactly.
	gen2 := trace.NewGen(b.Workload, sim.Geometry{Sets: 64, Ways: 4, LineSize: 64}, 1)
	for i, r := range refs {
		if live := gen2.Next(); live != r {
			t.Fatalf("ref %d: recorded %+v != live %+v", i, r, live)
		}
	}
}
