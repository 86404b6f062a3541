package stemcache

import (
	"hash/maphash"

	"repro/internal/sim"
)

// fallbackSeed feeds the maphash fallback for key types without a built-in
// deterministic hash. It is drawn once per process, so two caches in the
// same process place such keys identically, but placements differ across
// processes (documented on New).
var fallbackSeed = maphash.MakeSeed()

// defaultHasher picks a 64-bit hash for K mixed with the cache seed.
// Strings and all integer kinds get seeded, process-independent hashes;
// every other comparable type falls back to hash/maphash.
func defaultHasher[K comparable](seed uint64) func(K) uint64 {
	var zero K
	switch any(zero).(type) {
	case string:
		return func(k K) uint64 { return hashString(any(k).(string), seed) }
	case int:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(int)) ^ seed) }
	case int8:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(int8)) ^ seed) }
	case int16:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(int16)) ^ seed) }
	case int32:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(int32)) ^ seed) }
	case int64:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(int64)) ^ seed) }
	case uint:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(uint)) ^ seed) }
	case uint8:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(uint8)) ^ seed) }
	case uint16:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(uint16)) ^ seed) }
	case uint32:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(uint32)) ^ seed) }
	case uint64:
		return func(k K) uint64 { return sim.Mix64(any(k).(uint64) ^ seed) }
	case uintptr:
		return func(k K) uint64 { return sim.Mix64(uint64(any(k).(uintptr)) ^ seed) }
	default:
		return func(k K) uint64 { return sim.Mix64(maphash.Comparable(fallbackSeed, k) ^ seed) }
	}
}

// hashString is seeded FNV-1a finished with a splitmix64 mix, giving the
// avalanche the bit-slicing scheme needs from short keys.
func hashString(s string, seed uint64) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return sim.Mix64(h)
}
