// Package hashfn implements the hardware tag-signature hash STEM uses for
// its shadow sets (paper §4.2, Table 3: m = 10-bit shadow tags, hash function
// per Ramakrishna, Fu and Bahcekapili, "Efficient Hardware Hashing Functions
// for High Performance Computers", IEEE ToC 1997).
//
// The hash is from the H3 family: each input bit selects a fixed random m-bit
// row, and the output is the XOR of the selected rows. In hardware this is an
// XOR tree per output bit; in software the 64 rows are folded into one
// 256-entry table per input byte, so a signature is eight lookups. H3 hashes
// are uniform and pairwise independent for fixed random matrices, which is
// what gives the shadow set its low false-positive rate at 10 bits.
package hashfn

import "repro/internal/sim"

// MaxBits is the widest supported signature. Shadow tags in the paper are 10
// bits; wider signatures are allowed for sensitivity experiments.
const MaxBits = 32

// Hash is an H3 hash from 64-bit tags to m-bit signatures. The zero value is
// not usable; construct with New.
type Hash struct {
	bits int
	// tab[b][v] is the XOR of the rows selected by value v of input byte b
	// (row 8b+i for each set bit i of v).
	tab [8][256]uint32
}

// New builds an m-bit H3 hash whose matrix is drawn deterministically from
// seed. Two Hash values built with the same (bits, seed) are identical.
// It panics if bits is outside [1, MaxBits].
func New(bits int, seed uint64) *Hash {
	if bits < 1 || bits > MaxBits {
		// invariant: signature widths are fixed small constants (paper Table 3); out-of-range bits is a config-plumbing bug.
		panic("hashfn: bits out of range")
	}
	h := &Hash{bits: bits}
	mask := uint32(1<<uint(bits)) - 1
	rng := sim.NewRNG(seed)
	for i := 0; i < 64; i++ {
		// Redraw all-zero rows: a zero row would make that input bit
		// invisible to the signature.
		var row uint32
		for row == 0 {
			row = uint32(rng.Uint64()) & mask
		}
		// Every byte value with bit i%8 set is its value without that bit,
		// plus this row.
		t, bit := &h.tab[i/8], 1<<uint(i%8)
		for v := bit; v < 256; v++ {
			if v&bit != 0 {
				t[v] = t[v^bit] ^ row
			}
		}
	}
	return h
}

// Bits returns the signature width in bits.
func (h *Hash) Bits() int { return h.bits }

// Sum returns the m-bit signature of tag.
func (h *Hash) Sum(tag uint64) uint32 {
	t := &h.tab
	return t[0][byte(tag)] ^ t[1][byte(tag>>8)] ^ t[2][byte(tag>>16)] ^ t[3][byte(tag>>24)] ^
		t[4][byte(tag>>32)] ^ t[5][byte(tag>>40)] ^ t[6][byte(tag>>48)] ^ t[7][byte(tag>>56)]
}
