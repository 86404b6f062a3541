//go:build !race

// The layout gate runs with the allocation and count gates, in the plain
// build CI gives them their own step for.

package stemcache

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestShardLayout holds the shard's cache-line layout: a shard is a whole
// number of 64-byte lines and the shard array starts on a line, so no two
// shards share one; what every Get writes (the lock, the resident count, the
// inline tally row, the engine's RNG and tick) sits in a shard's first line;
// a set's tags start on a line, so an 8-way set's are one line and a 16-way
// set's (the default geometry) two; and a [string, []byte] entry is its key,
// value, hash and expiry, 56 bytes.
func TestShardLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is laid out for 64-bit words")
	}
	typ := reflect.TypeFor[shard[string, []byte]]()
	if size := typ.Size(); size%64 != 0 {
		t.Errorf("shard is %d bytes, not a multiple of 64", size)
	}
	for _, path := range []string{"mu", "live", "one", "eng.rng", "eng.tick"} {
		off, size := fieldSpan(t, typ, path)
		if off+size > 64 {
			t.Errorf("shard.%s spans bytes [%d, %d), past the first line", path, off, off+size)
		}
	}
	if size := unsafe.Sizeof(entry[string, []byte]{}); size != 56 {
		t.Errorf("entry[string, []byte] is %d bytes, want 56", size)
	}
	for _, cfg := range []Config{
		{Capacity: 8192, Shards: 1, Ways: 8},
		{Capacity: 8192, Shards: 2, Ways: 8},
		{Capacity: 8192, Shards: 16, Ways: 8},
		{Capacity: 8192, Shards: 64, Ways: 8},
		{}, // the default geometry: 16 shards of 16-way sets
	} {
		c := mustNew[string, []byte](cfg)
		if p := uintptr(unsafe.Pointer(&c.shards[0])); p%64 != 0 {
			t.Errorf("%+v: shard 0 at %#x, not on a 64-byte line", cfg, p)
		}
		if p := uintptr(unsafe.Pointer(&c.shards[0].tags[0])); p%64 != 0 {
			t.Errorf("%+v: tags at %#x, not on a 64-byte line", cfg, p)
		}
	}
}

// fieldSpan returns the byte offset and size of the (possibly nested,
// dot-separated) field path inside typ.
func fieldSpan(t *testing.T, typ reflect.Type, path string) (off, size uintptr) {
	t.Helper()
	for _, name := range strings.Split(path, ".") {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", typ, name)
		}
		off += f.Offset
		typ = f.Type
	}
	return off, typ.Size()
}
