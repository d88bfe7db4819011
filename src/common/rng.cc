#include "common/rng.h"

#include <math.h>  // lgamma_r

#include <algorithm>
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

// The incomplete-gamma evaluations stop once a term changes the sum by less
// than this, relative.
constexpr double kGammaEpsilon = 1e-15;
constexpr int kGammaMaxTerms = 1000;
constexpr double kLentzTiny = 1e-300;

// P(a, x) by its power series; converges fast for x < a + 1.
double LowerGammaSeries(double a, double x, double log_gamma_a) {
  double ap = a;
  double term = 1.0 / a;
  double sum = term;
  for (int n = 0; n < kGammaMaxTerms; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kGammaEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma_a);
}

// Q(a, x) by its continued fraction (modified Lentz); converges fast for
// x >= a + 1.
double UpperGammaFraction(double a, double x, double log_gamma_a) {
  double b = x + 1.0 - a;
  double c = 1.0 / kLentzTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kGammaMaxTerms; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kLentzTiny) d = kLentzTiny;
    c = b + an / c;
    if (std::fabs(c) < kLentzTiny) c = kLentzTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kGammaEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma_a) * h;
}

// P(a, x) - tail.p, evaluated through the smaller tail so that neither a
// tiny p nor a tiny q is lost to cancellation against 1.
double GammaCdfError(double a, double x, double log_gamma_a, TailProbability tail) {
  if (x < a + 1.0) {
    const double lower = LowerGammaSeries(a, x, log_gamma_a);
    return tail.p < 0.5 ? lower - tail.p : tail.q - (1.0 - lower);
  }
  const double upper = UpperGammaFraction(a, x, log_gamma_a);
  return tail.p < 0.5 ? (1.0 - upper) - tail.p : tail.q - upper;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  assert(a > 0.0);
  if (x <= 0.0) return 0.0;
  if (std::isinf(x)) return 1.0;
  if (x < a + 1.0) return LowerGammaSeries(a, x, LogGamma(a));
  return 1.0 - UpperGammaFraction(a, x, LogGamma(a));
}

double RegularizedGammaQ(double a, double x) {
  assert(a > 0.0);
  if (x <= 0.0) return 1.0;
  if (std::isinf(x)) return 0.0;
  if (x < a + 1.0) return 1.0 - LowerGammaSeries(a, x, LogGamma(a));
  return UpperGammaFraction(a, x, LogGamma(a));
}

const NormalZiggurat& NormalZiggurat::Get() {
  static const NormalZiggurat table = [] {
    // Layers of equal area V under f(x) = exp(-x^2 / 2), from the base
    // layer (edge R, plus the tail beyond it) up to the peak.
    constexpr double kLayerArea = 9.91256303526217e-3;  // V for R above.
    NormalZiggurat z;
    double f = std::exp(-0.5 * kTailStart * kTailStart);
    z.x[0] = kLayerArea / f;
    z.x[1] = kTailStart;
    z.x[kLayers] = 0.0;
    for (int i = 2; i < kLayers; ++i) {
      z.x[i] = std::sqrt(-2.0 * std::log(kLayerArea / z.x[i - 1] + f));
      f = std::exp(-0.5 * z.x[i] * z.x[i]);
    }
    for (int i = 0; i < kLayers; ++i) z.ratio[i] = z.x[i + 1] / z.x[i];
    return z;
  }();
  return table;
}

double LogGamma(double x) {
  assert(x > 0.0);
  int sign;
  return lgamma_r(x, &sign);
}

double GammaQuantile(double shape, double log_gamma_shape, TailProbability tail) {
  assert(shape > 0.0 && tail.p > 0.0 && tail.q > 0.0);
  const double a = shape;
  const double a1 = a - 1.0;
  // Starting point (Numerical Recipes, 3rd ed., `gammpinv`): a normal
  // approximation through Wilson–Hilferty above shape 1, and the exact small-x
  // and large-x tail forms below it.
  double x;
  if (a > 1.0) {
    const double pp = std::min(tail.p, tail.q);
    const double t = std::sqrt(-2.0 * std::log(pp));
    double z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
    if (tail.p < 0.5) z = -z;
    const double c = 1.0 - 1.0 / (9.0 * a) - z / (3.0 * std::sqrt(a));
    x = std::max(1e-3, a * c * c * c);
  } else {
    const double t = 1.0 - a * (0.253 + a * 0.12);
    x = tail.p < t ? std::pow(tail.p / t, 1.0 / a) : 1.0 - std::log(tail.q / (1.0 - t));
  }
  // Halley's method on P(a, x) - p. Convergence is cubic, so once a step is
  // below 1e-6 of x the iterate it lands on is already within ~1e-15.
  for (int iter = 0; iter < 32; ++iter) {
    if (x <= 0.0) return 0.0;
    const double err = GammaCdfError(a, x, log_gamma_shape, tail);
    const double pdf = std::exp(a1 * std::log(x) - x - log_gamma_shape);
    const double u = err / pdf;
    const double step = u / (1.0 - 0.5 * std::min(1.0, u * (a1 / x - 1.0)));
    if (!std::isfinite(step)) break;
    x -= step;
    if (x <= 0.0) x = 0.5 * (x + step);  // Overshot zero: halve instead.
    if (std::fabs(step) <= 1e-6 * x) break;
  }
  return x;
}

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
