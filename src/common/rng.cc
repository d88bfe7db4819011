#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace exsample {
namespace common {

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Counts of Bernoulli trials beyond this are indistinguishable from "never"
// for any dataset the library handles (frame counts are < 2^40).
constexpr uint64_t kGeometricSaturation = uint64_t{1} << 62;

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
  // xoshiro's all-zero state is absorbing; SplitMix64 cannot produce four
  // zero words from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo < hi);
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo)));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

uint64_t Rng::GeometricTrials(double p) {
  if (p >= 1.0) return 1;
  if (p <= 0.0) return kGeometricSaturation;
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  const double trials = std::floor(std::log(u) / std::log1p(-p)) + 1.0;
  if (!(trials < static_cast<double>(kGeometricSaturation))) {
    return kGeometricSaturation;
  }
  return static_cast<uint64_t>(trials);
}

double Rng::LogNormal(double mu_log, double sigma_log) {
  return std::exp(Normal(mu_log, sigma_log));
}

uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean > 30.0) {
    // Exact split: Poisson(a + b) = Poisson(a) + Poisson(b).
    const double half = mean * 0.5;
    return Poisson(half) + Poisson(mean - half);
  }
  const double limit = std::exp(-mean);
  uint64_t count = 0;
  double product = NextDouble();
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

Rng Rng::Fork() {
  // Mix two outputs so that sibling forks and the parent's subsequent stream
  // are decorrelated.
  const uint64_t a = NextU64();
  const uint64_t b = NextU64();
  uint64_t seed = a ^ Rotl(b, 29) ^ 0xd1342543de82ef95ULL;
  return Rng(seed);
}

}  // namespace common
}  // namespace exsample
