package hashfn

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, bits := range []int{0, -1, 33, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d, 0) did not panic", bits)
				}
			}()
			New(bits, 0)
		}()
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(10, 42), New(10, 42)
	f := func(tag uint64) bool { return a.Sum(tag) == b.Sum(tag) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(10, 1), New(10, 2)
	diff := 0
	for tag := uint64(1); tag < 1000; tag++ {
		if a.Sum(tag) != b.Sum(tag) {
			diff++
		}
	}
	if diff < 900 {
		t.Fatalf("different seeds agree on %d/999 tags", 999-diff)
	}
}

func TestWidth(t *testing.T) {
	for _, bits := range []int{1, 4, 10, 16, 32} {
		h := New(bits, 7)
		if h.Bits() != bits {
			t.Fatalf("Bits() = %d, want %d", h.Bits(), bits)
		}
		limit := uint32(1)<<uint(bits) - 1
		if bits == 32 {
			limit = ^uint32(0)
		}
		for tag := uint64(0); tag < 4096; tag++ {
			if s := h.Sum(tag); s > limit {
				t.Fatalf("Sum(%d) = %#x exceeds %d bits", tag, s, bits)
			}
		}
	}
}

func TestZeroTagIsZero(t *testing.T) {
	// H3 of the zero vector is zero by construction.
	if got := New(10, 3).Sum(0); got != 0 {
		t.Fatalf("Sum(0) = %#x, want 0", got)
	}
}

func TestLinearity(t *testing.T) {
	// H3 hashes are GF(2)-linear: h(a^b) == h(a)^h(b). This is the property
	// that makes them implementable as XOR trees in hardware.
	h := New(10, 99)
	f := func(a, b uint64) bool { return h.Sum(a^b) == h.Sum(a)^h.Sum(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBitSensitivity(t *testing.T) {
	// Every input bit must change the signature (no zero rows).
	h := New(10, 5)
	for i := 0; i < 64; i++ {
		if h.Sum(1<<uint(i)) == 0 {
			t.Fatalf("input bit %d is invisible to the hash", i)
		}
	}
}

func TestUniformity(t *testing.T) {
	// Sequential tags (the common case for set-local tag streams) should
	// spread evenly over the 2^10 signature space.
	h := New(10, 11)
	counts := make([]int, 1024)
	const n = 1024 * 64
	for tag := uint64(0); tag < n; tag++ {
		counts[h.Sum(tag)]++
	}
	for sig, c := range counts {
		if c < 16 || c > 192 {
			t.Fatalf("signature %#x hit %d times, expected near 64", sig, c)
		}
	}
}

func TestCollisionRate(t *testing.T) {
	// For random tag pairs the collision probability of a 10-bit H3 hash is
	// ~2^-10. Check it is in the right ballpark — this bounds the shadow
	// set's false-hit rate.
	h := New(10, 77)
	rngTag := uint64(0x9e3779b97f4a7c15)
	collisions, trials := 0, 200000
	prev := h.Sum(rngTag)
	for i := 0; i < trials; i++ {
		rngTag = rngTag*6364136223846793005 + 1442695040888963407
		s := h.Sum(rngTag)
		if s == prev {
			collisions++
		}
		prev = s
	}
	rate := float64(collisions) / float64(trials)
	if rate > 0.004 {
		t.Fatalf("collision rate %v too high for 10-bit signatures", rate)
	}
}

func BenchmarkSum(b *testing.B) {
	h := New(10, 42)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= h.Sum(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}

// The byte tables are the 64 rows folded: for every width, Sum equals the
// row-by-row XOR over the rows New draws.
func TestSumMatchesRowXOR(t *testing.T) {
	tags := sim.NewRNG(99)
	for width := 1; width <= MaxBits; width++ {
		seed := uint64(width) * 0x9e3779b97f4a7c15
		h := New(width, seed)
		var rows [64]uint32
		rng := sim.NewRNG(seed)
		for i := range rows {
			for rows[i] == 0 {
				rows[i] = uint32(rng.Uint64()) & uint32(1<<uint(width)-1)
			}
		}
		for n := 0; n < 10_000; n++ {
			tag := tags.Uint64() >> uint(tags.Intn(64)) // every length of tag
			var want uint32
			for i := range rows {
				if tag>>uint(i)&1 == 1 {
					want ^= rows[i]
				}
			}
			if got := h.Sum(tag); got != want {
				t.Fatalf("width %d: Sum(%#x) = %#x, row XOR %#x", width, tag, got, want)
			}
		}
	}
}
