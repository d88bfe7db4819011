#ifndef EXSAMPLE_COMMON_RNG_H_
#define EXSAMPLE_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace exsample {
namespace common {

/// \brief Layer tables of the 128-layer normal ziggurat (Marsaglia and
/// Tsang 2000, in Doornik's 2005 ZIGNOR form), built once on first use.
struct NormalZiggurat {
  static constexpr int kLayers = 128;
  static constexpr double kTailStart = 3.442619855899;  // R: the base layer's edge.
  double x[kLayers + 1];  // Layer edges; x[0] is the base layer's V / f(R).
  double ratio[kLayers];  // x[i + 1] / x[i]: the share of layer i inside the curve.
  static const NormalZiggurat& Get();
};

/// \brief Deterministic pseudo-random number generator (xoshiro256++) with the
/// distribution samplers the library needs.
///
/// Every stochastic component in the library takes an `Rng&` (or a seed it
/// expands into one) so that experiments, tests, and benchmarks are exactly
/// reproducible across runs and platforms. The generator is not
/// cryptographically secure and is not thread-safe; use `Fork()` to derive
/// independent streams for parallel work.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// \brief Next raw 64-bit output.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// \brief Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [0, bound). `bound` must be > 0.
  ///
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// \brief Uniform integer in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// \brief Standard normal variate (Marsaglia polar method).
  double Normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u, v, s;
    do {
      u = 2.0 * NextDouble() - 1.0;
      v = 2.0 * NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * factor;
    has_cached_normal_ = true;
    return u * factor;
  }

  /// \brief Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// \brief Exponential variate with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// \brief Number of Bernoulli(p) trials up to and including the first
  /// success (support {1, 2, ...}).
  ///
  /// Returns a saturating large count when `p` is 0 or denormally small, so
  /// callers can treat "never" as "beyond any horizon of interest".
  uint64_t GeometricTrials(double p);

  /// \brief Gamma variate with the given shape and rate (mean shape/rate).
  ///
  /// Marsaglia–Tsang squeeze method; shapes below 1 use the standard
  /// `U^{1/shape}` boosting transformation. Both parameters must be > 0.
  /// Equivalent to `GammaSampler(shape).Draw(*this, rate)`.
  double Gamma(double shape, double rate);

  /// \brief Log-normal variate: exp(Normal(mu_log, sigma_log)).
  double LogNormal(double mu_log, double sigma_log);

  /// \brief Poisson variate with the given mean.
  ///
  /// Knuth's product method for small means; larger means are split
  /// recursively (Poisson(a+b) = Poisson(a) + Poisson(b)), which stays exact.
  uint64_t Poisson(double mean);

  /// \brief Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// \brief Derives an independent child generator.
  ///
  /// The child stream is a deterministic function of the parent state, so a
  /// forked hierarchy of generators is reproducible from the root seed.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// \brief A counter-based stream: SplitMix64 outputs from a 64-bit seed,
/// with the uniform and normal variates `GammaSampler::Draw` consumes.
///
/// A keyed Thompson draw seeds one of these from `KeyedHash(key, chunk)`, so
/// the draw depends on nothing but its key, its chunk, and its belief.
class SplitMixStream {
 public:
  explicit SplitMixStream(uint64_t seed) : state_(seed) {}

  uint64_t NextU64() {
    const uint64_t s = state_;
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(s);
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  /// Standard normal variate by the ziggurat: one output, a compare and a
  /// multiply for ~99% of variates, where the polar method pays a log, a
  /// sqrt and a divide for every pair. A keyed draw needs one normal, so the
  /// polar pair's second half would be wasted. Measured in `bench_micro`, the
  /// polar method here doubles a keyed draw (15-16 ns -> 36-45 ns at shapes
  /// 1.1 and 5.1) and `BM_ThompsonPickDistinctBeliefs` (42-44 us -> 80-96 us).
  double Normal() {
    const NormalZiggurat& zig = NormalZiggurat::Get();
    for (;;) {
      const uint64_t bits = NextU64();
      // Sign and magnitude from the top 53 bits, the layer from the low 7.
      const double u = 2.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53) - 1.0;
      const int i = static_cast<int>(bits & (NormalZiggurat::kLayers - 1));
      if (std::fabs(u) < zig.ratio[i]) return u * zig.x[i];
      if (i == 0) return Tail(u < 0.0);
      const double x = u * zig.x[i];
      const double f0 = std::exp(-0.5 * (zig.x[i] * zig.x[i] - x * x));
      const double f1 = std::exp(-0.5 * (zig.x[i + 1] * zig.x[i + 1] - x * x));
      if (f1 + NextDouble() * (f0 - f1) < 1.0) return x;
    }
  }

 private:
  // Beyond R, by Marsaglia's exponential rejection.
  double Tail(bool negative) {
    constexpr double r = NormalZiggurat::kTailStart;
    double x, y;
    do {
      x = std::log(OpenDouble()) / r;
      y = std::log(OpenDouble());
    } while (-2.0 * y < x * x);
    return negative ? x - r : r - x;
  }
  // Uniform in (0, 1).
  double OpenDouble() { return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53; }

  uint64_t state_;
};

/// \brief A probability and its complement, each carried at full precision:
/// `p` is exact when it is below 1/2 and `q` when it is, so an inverse CDF
/// can resolve the far upper tail through `q`.
struct TailProbability {
  double p;
  double q;
};

/// \brief The uniform (0, 1) variate (bits + 1/2) / 2^64 of a 64-bit hash.
/// Monotone non-decreasing in `bits`; neither tail ever reaches 0.
inline TailProbability UnitFromBits(uint64_t bits) {
  if (bits < (uint64_t{1} << 63)) {
    const double p = (static_cast<double>(bits) + 0.5) * 0x1.0p-64;
    return {p, 1.0 - p};
  }
  const double q = (static_cast<double>(~bits) + 0.5) * 0x1.0p-64;
  return {1.0 - q, q};
}

/// \brief log Gamma(x) for x > 0. Thread-safe, unlike `std::lgamma`, which
/// writes the global `signgam`.
double LogGamma(double x);

/// \brief Regularized lower incomplete gamma function P(a, x), the CDF of
/// Gamma(shape a, rate 1) at x, for a > 0 and x >= 0. Series below
/// x = a + 1, Lentz continued fraction above (Numerical Recipes `gammp`),
/// accurate to ~1e-15.
double RegularizedGammaP(double a, double x);

/// \brief Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x),
/// computed directly in the upper tail, so a tiny Q keeps its precision.
double RegularizedGammaQ(double a, double x);

/// \brief Inverse of the Gamma(shape, rate 1) CDF: the x with
/// P(shape, x) = tail.p, equivalently Q(shape, x) = tail.q, where P and Q are
/// the regularized lower and upper incomplete gamma functions.
/// `log_gamma_shape` is `LogGamma(shape)`, which a caller drawing many
/// quantiles of one shape computes once.
///
/// Halley iterations from the Numerical Recipes starting point, converged to
/// ~1e-15 relative. Each step measures its error through whichever tail is
/// smaller, so a `tail.q` of 1e-15 is resolved as well as a `tail.p` of
/// 1e-15 is.
double GammaQuantile(double shape, double log_gamma_shape, TailProbability tail);

/// \brief Gamma variates of one fixed shape, with the shape's
/// Marsaglia–Tsang constants computed once.
///
/// A Thompson pick draws from every chunk's Gamma belief, and most chunks
/// share a handful of shapes (N1 + alpha0 with small N1), so a caller that
/// keeps samplers by shape pays for `d`, `c` and `1/shape` only when a shape
/// first appears. Draws consume exactly the random numbers `Rng::Gamma` does
/// and return the same bits; `Rng::Gamma` is this sampler built on the
/// spot.
class GammaSampler {
 public:
  /// A sampler of no shape: `shape()` is NaN, so it compares unequal to every
  /// shape a caller refreshes against. Not drawable.
  GammaSampler() = default;

  /// `shape` must be > 0.
  explicit GammaSampler(double shape)
      : shape_(shape), boost_(shape < 1.0), inv_shape_(1.0 / shape) {
    assert(shape > 0.0);
    d_ = (boost_ ? shape + 1.0 : shape) - 1.0 / 3.0;
    c_ = 1.0 / std::sqrt(9.0 * d_);
  }

  /// \brief The shape the constants were computed for.
  double shape() const { return shape_; }

  /// \brief One Gamma(shape, rate) variate if it is >= `floor`; otherwise
  /// some value below `floor`. `rate` must be > 0.
  ///
  /// The floor is for argmax scans: a draw below the running best can
  /// neither win nor tie, so its exact value is never needed. When the
  /// pre-boost variate is already below `floor`, the boost factor
  /// U^{1/shape} <= 1 can only lower it further, so the `pow` is skipped.
  /// The random numbers consumed are the same either way.
  ///
  /// `Gen` is `Rng` (the serial stream) or `SplitMixStream` (a keyed one).
  template <typename Gen>
  double Draw(Gen& rng, double rate,
              double floor = -std::numeric_limits<double>::infinity()) const {
    assert(rate > 0.0);
    // Boost: if X ~ Gamma(shape + 1) and U ~ Uniform(0, 1), then
    // X * U^{1/shape} ~ Gamma(shape). U comes first in the stream.
    double u0 = 0.0;
    if (boost_) {
      do {
        u0 = rng.NextDouble();
      } while (u0 == 0.0);
    }
    // Marsaglia–Tsang (2000).
    double x;
    for (;;) {
      double z, v;
      do {
        z = rng.Normal();
        v = 1.0 + c_ * z;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = rng.NextDouble();
      const double z2 = z * z;
      if (u < 1.0 - 0.0331 * z2 * z2 ||
          (u > 0.0 && std::log(u) < 0.5 * z2 + d_ * (1.0 - v + std::log(v)))) {
        x = d_ * v / rate;
        break;
      }
    }
    if (!boost_ || x < floor) return x;
    return x * std::pow(u0, inv_shape_);
  }

 private:
  double shape_ = std::numeric_limits<double>::quiet_NaN();
  bool boost_ = false;
  double inv_shape_ = 0.0;
  double d_ = 0.0;
  double c_ = 0.0;
};

inline double Rng::Gamma(double shape, double rate) {
  return GammaSampler(shape).Draw(*this, rate);
}

}  // namespace common
}  // namespace exsample

#endif  // EXSAMPLE_COMMON_RNG_H_
