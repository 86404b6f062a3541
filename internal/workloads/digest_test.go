package workloads

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// keyStreamDigests pins every serving key stream: FNV-64a over the first
// 1 000 000 keys (each key's bytes followed by one 0 byte) of worker w's
// stream at seed 0x57E4+w, keyed "dist/capacity/w/workers". The values were
// generated by this test before the generators memoized their keys and
// hoisted their Zipf constants; anything that changes one has changed the
// load every serving benchmark and stemload run replays.
var keyStreamDigests = map[string]string{
	"zipf/8192/0/2":          "4520129193215cbe",
	"zipf/8192/1/2":          "fcbfc5b3f04f9695",
	"zipf/1024/0/1":          "3bbc642c1a535c27",
	"zipf/64/2/3":            "2109e26cb199c5bd",
	"zipf/1/0/1":             "05cc2268dd4de12c",
	"scan/8192/0/2":          "8814049f8317ffe1",
	"scan/8192/1/2":          "34ecd7d0cd1c85a2",
	"scan/1024/0/1":          "34c93d04bd3fb867",
	"scan/64/2/3":            "b799b6545de8b521",
	"scan/1/0/1":             "ad7ec8414db70865",
	"mixed/8192/0/2":         "f48eac8a2a4a1da7",
	"mixed/8192/1/2":         "05ea5869acf460f6",
	"mixed/1024/0/1":         "1dae428495878f3c",
	"mixed/64/2/3":           "bbe64afaca3a204f",
	"mixed/1/0/1":            "73136ff25ea2a365",
	"hotspot-shift/8192/0/2": "0705324eec95ab4a",
	"hotspot-shift/8192/1/2": "6b0e9a1157a9bad8",
	"hotspot-shift/1024/0/1": "b97d55dc212352ac",
	"hotspot-shift/64/2/3":   "6b8a802e95d320e1",
	"hotspot-shift/1/0/1":    "254c6e9355dc2c79",
}

var digestGeometries = []struct{ capacity, w, workers int }{
	{8192, 0, 2}, {8192, 1, 2}, {1024, 0, 1}, {64, 2, 3}, {1, 0, 1},
}

const digestKeys = 1_000_000

// digest returns FNV-64a over digestKeys draws, each a run of strings, each
// string followed by one 0 byte.
func digest(draw func() []string) string {
	h := fnv.New64a()
	for i := 0; i < digestKeys; i++ {
		for _, s := range draw() {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkDigests compares computed digests with the pinned table, both ways.
func checkDigests(t *testing.T, pinned, got map[string]string) {
	t.Helper()
	for id, g := range got {
		if want, ok := pinned[id]; !ok {
			t.Errorf("%s: no pinned digest (stream gives %s)", id, g)
		} else if g != want {
			t.Errorf("%s: stream digest %s, pinned %s", id, g, want)
		}
	}
	if len(got) != len(pinned) {
		t.Errorf("%d pinned digests, %d streams", len(pinned), len(got))
	}
}

func TestKeyStreamDigests(t *testing.T) {
	got := map[string]string{}
	for _, dist := range KeyDists() {
		for _, g := range digestGeometries {
			next, err := NewWorkerKeyStream(dist, g.capacity, 0x57E4+uint64(g.w), g.w, g.workers)
			if err != nil {
				t.Fatal(err)
			}
			key := make([]string, 1)
			got[fmt.Sprintf("%s/%d/%d/%d", dist, g.capacity, g.w, g.workers)] = digest(func() []string {
				key[0] = next()
				return key
			})
		}
	}
	checkDigests(t, keyStreamDigests, got)
}
