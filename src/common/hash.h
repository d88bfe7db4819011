#ifndef EXSAMPLE_COMMON_HASH_H_
#define EXSAMPLE_COMMON_HASH_H_

#include <cstdint>

namespace exsample {
namespace common {

/// \brief SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Combines two 64-bit values into one hash.
///
/// Used to derive per-frame deterministic randomness (seed x frame id), so a
/// simulated detector returns identical output every time the same frame is
/// processed — the idempotence a real detector has.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ Mix64(value));
}

/// \brief Output `index` of a SplitMix64 stream started at `key`: a pure
/// function of (key, index), so values keyed this way can be produced in any
/// order, on any thread, and each is independent of the others.
inline uint64_t KeyedHash(uint64_t key, uint64_t index) {
  return Mix64(key + index * 0x9e3779b97f4a7c15ULL);
}

}  // namespace common
}  // namespace exsample

#endif  // EXSAMPLE_COMMON_HASH_H_
