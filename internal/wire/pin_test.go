package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

const goldenPath = "testdata/frames.golden"

// TestFrameGolden pins the encoder byte for byte: every request and response
// fixture must encode to the hex checked in under testdata. Regenerate with
// `go test ./internal/wire -run TestFrameGolden -update` only when a frame
// layout changes on purpose (a protocol version bump).
func TestFrameGolden(t *testing.T) {
	var got bytes.Buffer
	for i, f := range fixtureFrames(t, Limits{}.withDefaults()) {
		fmt.Fprintf(&got, "%d %x\n", i, f)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := bufio.NewScanner(&got), bufio.NewScanner(bytes.NewReader(want))
	for line := 1; ; line++ {
		g, w := gs.Scan(), ws.Scan()
		if !g && !w {
			return
		}
		if g != w || gs.Text() != ws.Text() {
			t.Fatalf("%s line %d:\ngot  %s\nwant %s", goldenPath, line, gs.Text(), ws.Text())
		}
	}
}

// verdictDigest is the SHA-256 TestDecodeVerdictDigest computes; it changes
// only when some frame decodes differently.
const verdictDigest = "7a05639a941f78f3d16c5ceb978280cfcfbb70a35767f3ae8a170d3d40ddfb38"

// TestDecodeVerdictDigest pins what both decoders make of 100k seeded
// mutations of the fixture frames: for each mutated frame, each decoder's
// verdict, the bytes it consumed, every decoded field (pointers followed),
// and the bytes the decoded frame re-encodes to. Error strings are not
// hashed, so rewording a message leaves the digest alone; accepting,
// refusing or decoding any of these frames differently does not.
func TestDecodeVerdictDigest(t *testing.T) {
	lim := Limits{MaxValueLen: 1 << 16, MaxBatch: 64}.withDefaults()
	frames := fixtureFrames(t, lim)
	rng := rand.New(rand.NewPCG(36, 2))
	h := sha256.New()
	for i := 0; i < 100_000; i++ {
		hashVerdicts(h, mutate(rng, frames[rng.IntN(len(frames))]), lim)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != verdictDigest {
		t.Fatalf("decode verdict digest %s, want %s", got, verdictDigest)
	}
}

// fixtureFrames encodes every request fixture, then every response fixture.
func fixtureFrames(tb testing.TB, lim Limits) [][]byte {
	tb.Helper()
	var frames [][]byte
	for _, req := range requestFixtures() {
		b, err := AppendRequest(nil, req, lim)
		if err != nil {
			tb.Fatalf("%v: %v", req.Op, err)
		}
		frames = append(frames, b)
	}
	for _, resp := range responseFixtures() {
		b, err := AppendResponse(nil, resp, lim)
		if err != nil {
			tb.Fatalf("%v/%v: %v", resp.Op, resp.Status, err)
		}
		frames = append(frames, b)
	}
	return frames
}

// mutate returns a damaged copy of frame: one bit flipped, a truncation with
// the header's length left alone or patched to match, a random opcode or
// flags/status byte, or junk appended under a patched length.
func mutate(rng *rand.Rand, frame []byte) []byte {
	b := append([]byte(nil), frame...)
	patch := func() { binary.BigEndian.PutUint32(b[8:12], uint32(len(b)-HeaderLen)) }
	switch rng.IntN(5) {
	case 0:
		i := rng.IntN(8 * len(b))
		b[i/8] ^= 1 << (i % 8)
	case 1:
		b = b[:rng.IntN(len(b))]
	case 2:
		b = b[:HeaderLen+rng.IntN(len(b)-HeaderLen+1)]
		patch()
	case 3:
		b[2+rng.IntN(2)] = byte(rng.UintN(256))
	case 4:
		for n := 1 + rng.IntN(16); n > 0; n-- {
			b = append(b, byte(rng.UintN(256)))
		}
		patch()
	}
	return b
}

// hashVerdicts feeds h both decoders' reading of data.
func hashVerdicts(h hash.Hash, data []byte, lim Limits) {
	req, n, err := DecodeRequest(data, lim)
	fmt.Fprintf(h, "req %t %d ", err == nil, n)
	if err == nil {
		dumpValue(h, reflect.ValueOf(req))
		reb, err := AppendRequest(nil, req, lim)
		fmt.Fprintf(h, " %t %x", err == nil, reb)
	}
	resp, n, err := DecodeResponse(data, lim)
	fmt.Fprintf(h, "\nresp %t %d ", err == nil, n)
	if err == nil {
		dumpValue(h, reflect.ValueOf(resp))
		reb, err := AppendResponse(nil, resp, lim)
		fmt.Fprintf(h, " %t %x", err == nil, reb)
	}
	io.WriteString(h, "\n")
}

// dumpValue writes v in a canonical text form that depends on no address:
// pointers are followed, and a nil slice reads differently from an empty one.
func dumpValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		io.WriteString(w, "&")
		dumpValue(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			dumpValue(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(w, v.Index(i))
		}
		io.WriteString(w, "]")
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	default:
		fmt.Fprintf(w, "%v;", v.Interface())
	}
}
