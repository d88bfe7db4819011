#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math_util.h"

namespace exsample {
namespace common {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextBoundedCoversRangeUniformly) {
  Rng rng(2);
  constexpr uint64_t kBound = 10;
  std::vector<uint64_t> counts(kBound, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBound)];
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 10.0, 5.0 * std::sqrt(kDraws / 10.0));
  }
}

TEST(RngTest, NextBoundedOne) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, UniformIntInHalfOpenRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 5);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(6);
  int hits = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  std::vector<double> draws(200000);
  for (double& d : draws) d = rng.Normal();
  EXPECT_NEAR(Mean(draws), 0.0, 0.02);
  EXPECT_NEAR(SampleStdDev(draws), 1.0, 0.02);
}

TEST(RngTest, NormalShifted) {
  Rng rng(8);
  std::vector<double> draws(100000);
  for (double& d : draws) d = rng.Normal(5.0, 2.0);
  EXPECT_NEAR(Mean(draws), 5.0, 0.05);
  EXPECT_NEAR(SampleStdDev(draws), 2.0, 0.05);
}

TEST(RngTest, ExponentialMoments) {
  Rng rng(9);
  std::vector<double> draws(200000);
  for (double& d : draws) d = rng.Exponential(4.0);
  EXPECT_NEAR(Mean(draws), 0.25, 0.01);
}

TEST(RngTest, GeometricTrialsMean) {
  Rng rng(10);
  // E[trials to first success] = 1/p.
  for (double p : {0.5, 0.1, 0.01}) {
    double total = 0.0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) {
      total += static_cast<double>(rng.GeometricTrials(p));
    }
    const double mean = total / kDraws;
    EXPECT_NEAR(mean, 1.0 / p, 0.05 / p) << "p=" << p;
  }
}

TEST(RngTest, GeometricTrialsSupportStartsAtOne) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.GeometricTrials(0.9), 1u);
  EXPECT_EQ(rng.GeometricTrials(1.0), 1u);
}

TEST(RngTest, GeometricTrialsZeroProbabilitySaturates) {
  Rng rng(12);
  EXPECT_GT(rng.GeometricTrials(0.0), uint64_t{1} << 61);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(13);
  std::vector<double> draws(100000);
  for (double& d : draws) d = rng.LogNormal(1.0, 0.5);
  // Median of LogNormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(Median(draws), std::exp(1.0), 0.05);
}

struct GammaCase {
  double shape;
  double rate;
};

class RngGammaTest : public ::testing::TestWithParam<GammaCase> {};

TEST_P(RngGammaTest, MomentsMatch) {
  const GammaCase param = GetParam();
  Rng rng(14);
  std::vector<double> draws(200000);
  for (double& d : draws) d = rng.Gamma(param.shape, param.rate);
  const double expected_mean = param.shape / param.rate;
  const double expected_var = param.shape / (param.rate * param.rate);
  EXPECT_NEAR(Mean(draws), expected_mean, 0.03 * expected_mean + 1e-4);
  EXPECT_NEAR(SampleVariance(draws), expected_var, 0.08 * expected_var + 1e-4);
  for (double d : draws) EXPECT_GT(d, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RngGammaTest,
                         ::testing::Values(GammaCase{0.1, 1.0}, GammaCase{0.5, 2.0},
                                           GammaCase{1.0, 1.0}, GammaCase{2.5, 0.5},
                                           GammaCase{10.0, 3.0}, GammaCase{100.0, 10.0}),
                         [](const ::testing::TestParamInfo<GammaCase>& info) {
                           return "shape" + std::to_string(static_cast<int>(
                                                info.param.shape * 10)) +
                                  "rate" + std::to_string(static_cast<int>(
                                               info.param.rate * 10));
                         });

TEST(GammaSamplerTest, FloorIsExactAboveAndBelowIt) {
  // Draws at or above the floor are bit-identical to unfloored draws; draws
  // below it stay below it. The stream consumed is the same either way.
  for (double shape : {0.1, 0.5, 2.0}) {
    const GammaSampler sampler(shape);
    Rng plain(21), floored(21), floors(22);
    int below = 0;
    for (int i = 0; i < 5000; ++i) {
      const double floor = floors.Uniform(0.0, 2.0 * shape);
      const double x = sampler.Draw(plain, 1.5);
      const double y = sampler.Draw(floored, 1.5, floor);
      if (x >= floor) {
        EXPECT_EQ(y, x) << "shape " << shape << " draw " << i;
      } else {
        EXPECT_LT(y, floor) << "shape " << shape << " draw " << i;
        ++below;
      }
    }
    EXPECT_GT(below, 0);
    EXPECT_EQ(plain.NextU64(), floored.NextU64());
  }
}

// Kolmogorov–Smirnov distance between `sorted` and a CDF.
template <typename Cdf>
double KsDistance(const std::vector<double>& sorted, Cdf cdf) {
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double f = cdf(sorted[i]);
    d = std::max(d, std::max(f - static_cast<double>(i) / n,
                             static_cast<double>(i + 1) / n - f));
  }
  return d;
}

TEST(SplitMixStreamTest, ZigguratNormalFollowsTheNormalCdfIntoTheTail) {
  // Enough draws that ~1200 land beyond the base layer's edge R and take
  // the tail sampler. Checked three ways, each at alpha ~0.001: the whole
  // sample against Phi, the share beyond +-R against 2 Q(R), and the
  // magnitudes beyond R against the conditional tail 1 - Q(x) / Q(R).
  constexpr size_t kDraws = size_t{1} << 21;
  const double r = NormalZiggurat::kTailStart;
  const auto upper = [](double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); };
  SplitMixStream stream(41);
  std::vector<double> draws(kDraws), tail;
  size_t negative_tail = 0;
  for (double& x : draws) {
    x = stream.Normal();
    if (std::fabs(x) > r) {
      tail.push_back(std::fabs(x));
      if (x < 0.0) ++negative_tail;
    }
  }
  std::sort(draws.begin(), draws.end());
  const double critical = 1.95 / std::sqrt(static_cast<double>(kDraws));
  EXPECT_LT(KsDistance(draws, [&](double x) { return upper(-x); }), critical);

  const double expected_tail = 2.0 * upper(r) * static_cast<double>(kDraws);
  EXPECT_NEAR(static_cast<double>(tail.size()), expected_tail,
              3.3 * std::sqrt(expected_tail));
  EXPECT_NEAR(static_cast<double>(negative_tail), 0.5 * static_cast<double>(tail.size()),
              3.3 * 0.5 * std::sqrt(static_cast<double>(tail.size())));
  std::sort(tail.begin(), tail.end());
  EXPECT_LT(KsDistance(tail, [&](double x) { return 1.0 - upper(x) / upper(r); }),
            1.95 / std::sqrt(static_cast<double>(tail.size())));
}

class RngPoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonTest, MeanAndVarianceMatch) {
  const double lambda = GetParam();
  Rng rng(15);
  std::vector<double> draws(100000);
  for (double& d : draws) d = static_cast<double>(rng.Poisson(lambda));
  EXPECT_NEAR(Mean(draws), lambda, 0.03 * lambda + 0.01);
  // Poisson variance equals its mean.
  EXPECT_NEAR(SampleVariance(draws), lambda, 0.08 * lambda + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RngPoissonTest,
                         ::testing::Values(0.1, 1.0, 5.0, 25.0, 80.0, 300.0));

TEST(RngTest, PoissonZeroMean) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(18);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i;
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(19);
  Rng child = parent.Fork();
  // Child and parent streams must differ, and forking must be deterministic.
  Rng parent2(19);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child.NextU64(), child2.NextU64());
  }
  Rng parent3(19);
  parent3.Fork();
  bool differs = false;
  Rng child3(19);
  for (int i = 0; i < 50; ++i) {
    if (parent3.NextU64() != child3.NextU64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace common
}  // namespace exsample
