package sim

// RNG is a deterministic 64-bit pseudo-random stream (xorshift64* seeded
// through splitmix64). Every probabilistic device in the repository — BIP's
// 1/32 MRU insertion, STEM's 1/2^n spatial-counter decrement, workload
// mixtures — draws from an RNG owned by its component, so runs are exactly
// reproducible from their seeds and components do not perturb one another.
//
// The zero value is usable (it is reseeded to a fixed non-zero state).
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded from seed. Distinct seeds give independent
// streams; seed 0 is remapped to a fixed constant.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the stream. The seed is diffused through splitmix64 so
// that consecutive small seeds give uncorrelated streams.
func (r *RNG) Seed(seed uint64) {
	z := Mix64(seed + 0x9e3779b97f4a7c15)
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	r.state = z
}

// Mix64 is the splitmix64 finalizer: a bijective full-avalanche 64→64 mix,
// so that dense inputs (sequential ints, small seeds) come out spread
// uniformly over every bit. The cache hashers, ring placement, trace ids and
// RNG seeding all share this one copy.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	if r.state == 0 {
		r.Seed(0)
	}
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		// invariant: mirrors math/rand.Intn's contract; callers always pass set or way counts >= 1.
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OneIn reports true with probability 1/n. It panics if n <= 0.
func (r *RNG) OneIn(n int) bool { return r.Intn(n) == 0 }

// Bernoulli reports true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
