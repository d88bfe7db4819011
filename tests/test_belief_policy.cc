#include "core/belief_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/estimator.h"
#include "stats/special_functions.h"

namespace exsample {
namespace core {
namespace {

std::vector<bool> AllEligible(size_t n) { return std::vector<bool>(n, true); }

TEST(ThompsonPolicyTest, ColdStartPicksUniformly) {
  // With identical beliefs everywhere, Thompson sampling breaks ties at
  // random (paper: "during the first execution ... Thompson sampling
  // effectively breaks ties at random").
  ChunkStatsTable stats(4);
  ThompsonPolicy policy;
  common::Rng rng(1);
  std::map<size_t, int> counts;
  for (int i = 0; i < 8000; ++i) {
    ++counts[policy.PickChunk(stats, AllEligible(4), rng)];
  }
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_GT(counts[j], 1500) << "chunk " << j;
  }
}

TEST(ThompsonPolicyTest, PrefersProductiveChunk) {
  // Chunk 1 has found many unique results; chunk 0 many samples, nothing.
  ChunkStatsTable stats(2);
  for (int i = 0; i < 100; ++i) stats.Update(0, 0, 0);
  for (int i = 0; i < 100; ++i) stats.Update(1, 1, 0);
  ThompsonPolicy policy;
  common::Rng rng(2);
  int chunk1 = 0;
  for (int i = 0; i < 2000; ++i) {
    if (policy.PickChunk(stats, AllEligible(2), rng) == 1) ++chunk1;
  }
  EXPECT_GT(chunk1, 1900);
}

TEST(ThompsonPolicyTest, StillExploresEmptyChunks) {
  // A chunk with zero results keeps a nonzero pick probability thanks to
  // alpha0 (the paper's rationale for the prior): the Gamma(alpha0, n+beta0)
  // belief has a heavy enough upper tail to occasionally beat a modestly
  // productive chunk.
  ChunkStatsTable stats(2);
  for (int i = 0; i < 5; ++i) stats.Update(0, 0, 0);          // Nothing yet.
  for (int i = 0; i < 5; ++i) stats.Update(1, i == 0 ? 1 : 0, 0);  // One hit.
  ThompsonPolicy policy;
  common::Rng rng(3);
  int explored = 0;
  for (int i = 0; i < 20000; ++i) {
    if (policy.PickChunk(stats, AllEligible(2), rng) == 0) ++explored;
  }
  EXPECT_GT(explored, 500);
  EXPECT_LT(explored, 10000);  // ...but the productive chunk clearly leads.
}

TEST(ThompsonPolicyTest, RespectsEligibility) {
  ChunkStatsTable stats(3);
  for (int i = 0; i < 100; ++i) stats.Update(1, 5, 0);  // Chunk 1 is by far best...
  std::vector<bool> eligible{true, false, true};         // ...but exhausted.
  ThompsonPolicy policy;
  common::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const size_t pick = policy.PickChunk(stats, eligible, rng);
    EXPECT_NE(pick, 1u);
  }
}

TEST(ThompsonPolicyDeathTest, NoEligibleChunkIsFatal) {
  // Release builds too: returning NumChunks() would send callers out of
  // bounds.
  ChunkStatsTable stats(3);
  ThompsonPolicy policy;
  common::Rng rng(11);
  EXPECT_DEATH(policy.PickChunk(stats, std::vector<bool>(3, false), rng),
               "at least one eligible chunk");
}

// The serial Thompson pick the keyed kernel replaced: a fresh belief and a
// full draw from the shared stream for every eligible chunk, argmax with
// reservoir sampling over exact ties. `priors` empty means the flat default
// prior. It draws from the same beliefs, so its pick frequencies are the
// keyed kernel's.
size_t SerialThompsonPick(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                          const std::vector<BeliefParams>& priors, common::Rng& rng) {
  double best = -std::numeric_limits<double>::infinity();
  size_t best_idx = stats.NumChunks();
  uint64_t ties = 0;
  for (size_t j = 0; j < stats.NumChunks(); ++j) {
    if (!eligible[j]) continue;
    const BeliefParams prior = priors.empty() ? BeliefParams{} : priors[j];
    const double s =
        MakeBelief(stats.N1NonNegative(j), stats.State(j).n, prior).Sample(rng);
    if (s > best) {
      best = s;
      best_idx = j;
      ties = 1;
    } else if (s == best) {
      ++ties;
      if (rng.NextBounded(ties) == 0) best_idx = j;
    }
  }
  return best_idx;
}

// The keyed pick computed from scratch: group the eligible chunks by exact
// (shape, rate) with a std::map, invert once at the largest hash of each
// group of at least kGroupCrossover members, draw every member of a smaller
// group by keyed Marsaglia–Tsang with no floor, and break exact ties toward
// the lowest index.
size_t KeyedReferencePick(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                          const std::vector<BeliefParams>& priors, uint64_t key) {
  std::map<std::pair<double, double>, std::vector<size_t>> groups;
  for (size_t j = 0; j < stats.NumChunks(); ++j) {
    if (!eligible[j]) continue;
    const BeliefParams prior = priors.empty() ? BeliefParams{} : priors[j];
    groups[{static_cast<double>(stats.N1NonNegative(j)) + prior.alpha0,
            static_cast<double>(stats.State(j).n) + prior.beta0}]
        .push_back(j);
  }
  double best = -std::numeric_limits<double>::infinity();
  size_t best_idx = stats.NumChunks();
  const auto consider = [&](double draw, size_t j) {
    if (draw > best || (draw == best && j < best_idx)) {
      best = draw;
      best_idx = j;
    }
  };
  for (const auto& [belief, members] : groups) {
    const auto [shape, rate] = belief;
    if (members.size() >= ThompsonPolicy::kGroupCrossover) {
      size_t top = members.front();
      for (size_t j : members) {
        if (common::KeyedHash(key, j) > common::KeyedHash(key, top)) top = j;
      }
      consider(common::GammaQuantile(shape, std::lgamma(shape),
                                     common::UnitFromBits(common::KeyedHash(key, top))) /
                   rate,
               top);
    } else {
      for (size_t j : members) {
        common::SplitMixStream stream(common::KeyedHash(key, j));
        consider(common::GammaSampler(shape).Draw(stream, rate), j);
      }
    }
  }
  return best_idx;
}

// Drives ThompsonPolicy and the from-scratch keyed reference with the same
// keys over a shared stats table, asserting every pick agrees: the
// incremental group bookkeeping must always equal a fresh grouping.
class KeyedReferenceHarness {
 public:
  KeyedReferenceHarness(size_t chunks, uint64_t seed)
      : stats(chunks), eligible(chunks, true), keys_(seed) {}

  void SetPriors(std::vector<BeliefParams> priors) {
    policy_.SetChunkPriors(priors);
    priors_ = std::move(priors);
  }

  size_t Pick() {
    const uint64_t key = keys_.NextU64();
    const size_t pick = policy_.PickKeyed(stats, eligible, key);
    EXPECT_EQ(pick, KeyedReferencePick(stats, eligible, priors_, key)) << "pick " << picks_;
    ++picks_;
    return pick;
  }

  ChunkStatsTable stats;
  std::vector<bool> eligible;

 private:
  ThompsonPolicy policy_;
  std::vector<BeliefParams> priors_;
  common::Rng keys_;
  int picks_ = 0;
};

// Runs `picks` picks with outcomes from `world`: every fifth chunk is
// productive, repeat sightings push N1 down (below zero at times), and the
// eligible set is re-drawn with holes every 50 picks.
void RunAgainstReference(KeyedReferenceHarness* harness, int picks, common::Rng& world) {
  const size_t chunks = harness->stats.NumChunks();
  for (int i = 0; i < picks; ++i) {
    if (i % 50 == 0) {
      for (size_t j = 0; j < chunks; ++j) harness->eligible[j] = world.Bernoulli(0.8);
      harness->eligible[world.NextBounded(chunks)] = true;
    }
    const size_t j = harness->Pick();
    const bool hit = world.Bernoulli(j % 5 == 0 ? 0.6 : 0.05);
    const size_t found = hit ? 1 + world.NextBounded(2) : 0;
    const size_t once = world.Bernoulli(0.3) ? 1 : 0;
    harness->stats.Update(j, found, once);
  }
}

TEST(ThompsonPolicyTest, FlatPriorMatchesFreshGroupingAcrossSizes) {
  // Large groups (the N1 = 0 bulk) and small ones (productive chunks that
  // climbed to shapes well above 1) side by side, with eligibility holes.
  for (size_t chunks : {size_t{1}, size_t{7}, size_t{64}, size_t{1600}}) {
    KeyedReferenceHarness harness(chunks, 100 + chunks);
    common::Rng world(200 + chunks);
    RunAgainstReference(&harness, chunks == 1600 ? 300 : 2000, world);
    uint64_t max_n1 = 0;
    for (size_t j = 0; j < chunks; ++j) {
      max_n1 = std::max(max_n1, harness.stats.N1NonNegative(j));
    }
    EXPECT_GE(max_n1, 2u) << chunks << " chunks";
  }
}

TEST(ThompsonPolicyTest, PerChunkPriorsMatchFreshGrouping) {
  // Warm-start priors on both sides of alpha0 = 1, installed mid-run and then
  // replaced: each install must regroup every chunk.
  constexpr size_t kChunks = 96;
  KeyedReferenceHarness harness(kChunks, 300);
  common::Rng world(301);
  RunAgainstReference(&harness, 500, world);
  std::vector<BeliefParams> priors(kChunks);
  for (size_t j = 0; j < kChunks; ++j) {
    priors[j] = {j % 2 == 0 ? 0.4 : 2.5, 1.0 + static_cast<double>(j % 4)};
  }
  harness.SetPriors(priors);
  RunAgainstReference(&harness, 1500, world);
  for (BeliefParams& prior : priors) prior.alpha0 = prior.alpha0 < 1.0 ? 1.7 : 0.25;
  harness.SetPriors(priors);
  RunAgainstReference(&harness, 1500, world);
  harness.SetPriors({});
  RunAgainstReference(&harness, 500, world);
}

TEST(ThompsonPolicyTest, N1RisingThenFallingBelowZeroMatchesFreshGrouping) {
  // Chunk 0's N1 goes 0 -> 4 -> 1 -> -2 (clamped to 0) -> 3 -> 19, and chunk
  // 1 sits at N1 = 3: chunk 0 must follow its belief between groups in both
  // directions.
  KeyedReferenceHarness harness(3, 400);
  harness.stats.Update(1, 3, 0);
  const std::vector<std::pair<size_t, size_t>> steps{
      {4, 0}, {0, 3}, {0, 3}, {5, 0}, {16, 0}};
  for (const auto& [found, once] : steps) {
    harness.stats.Update(0, found, once);
    for (int i = 0; i < 200; ++i) harness.Pick();
  }
  EXPECT_EQ(harness.stats.State(0).n1, 19);
}

TEST(ThompsonPolicyTest, PickTakesOneU64PerPick) {
  ChunkStatsTable stats(1600);
  for (size_t j = 0; j < 1600; j += 3) stats.Update(j, j % 2, 0);
  ThompsonPolicy policy;
  common::Rng rng(12), mirror(12);
  for (int i = 0; i < 20; ++i) {
    const uint64_t key = mirror.NextU64();
    ThompsonPolicy fresh;
    EXPECT_EQ(policy.PickChunk(stats, AllEligible(1600), rng),
              fresh.PickKeyed(stats, AllEligible(1600), key));
  }
  EXPECT_EQ(rng.NextU64(), mirror.NextU64());
}

// Kolmogorov–Smirnov distance between `draws` and the Gamma(shape, rate) CDF.
double KsDistance(std::vector<double> draws, double shape, double rate) {
  std::sort(draws.begin(), draws.end());
  const double n = static_cast<double>(draws.size());
  double d = 0.0;
  for (size_t i = 0; i < draws.size(); ++i) {
    const double cdf = stats::RegularizedGammaP(shape, draws[i] * rate);
    d = std::max(d, std::max(cdf - static_cast<double>(i) / n,
                             static_cast<double>(i + 1) / n - cdf));
  }
  return d;
}

TEST(KeyedGammaDrawTest, BothPathsFollowTheGammaCdf) {
  // Consecutive chunk indices under one key, as a pick hashes them. The
  // critical distance at alpha = 0.001 is 1.95 / sqrt(n).
  constexpr size_t kDraws = 4000;
  const double critical = 1.95 / std::sqrt(static_cast<double>(kDraws));
  for (double shape : {0.1, 0.5, 1.0, 1.1, 5.1, 100.0}) {
    const common::GammaSampler sampler(shape);
    const double log_gamma = common::LogGamma(shape);
    for (double rate : {1.0, 37.0}) {
      const uint64_t key = common::Mix64(static_cast<uint64_t>(shape * 1000 + rate));
      std::vector<double> inverted, drawn;
      for (size_t j = 0; j < kDraws; ++j) {
        const uint64_t hash = common::KeyedHash(key, j);
        inverted.push_back(
            common::GammaQuantile(shape, log_gamma, common::UnitFromBits(hash)) / rate);
        common::SplitMixStream stream(hash);
        drawn.push_back(sampler.Draw(stream, rate));
      }
      EXPECT_LT(KsDistance(inverted, shape, rate), critical)
          << "group path, shape " << shape << " rate " << rate;
      EXPECT_LT(KsDistance(drawn, shape, rate), critical)
          << "per-chunk path, shape " << shape << " rate " << rate;
    }
  }
}

TEST(KeyedGammaDrawTest, QuantileRoundTripsThroughBothTails) {
  // The lower tail is checked through P and the upper through Q, each
  // relative to the probability asked for, out to 1 - 1e-9.
  for (double shape : {0.1, 0.5, 1.0, 1.1, 5.1, 100.0}) {
    const double log_gamma = common::LogGamma(shape);
    EXPECT_NEAR(log_gamma, std::lgamma(shape), 1e-12 * std::max(1.0, std::fabs(log_gamma)));
    for (double p : {1e-12, 1e-6, 0.01, 0.3}) {
      const double x = common::GammaQuantile(shape, log_gamma, {p, 1.0 - p});
      EXPECT_NEAR(stats::RegularizedGammaP(shape, x) / p, 1.0, 1e-9)
          << "shape " << shape << " p " << p;
    }
    for (double q : {0.5, 0.1, 1e-3, 1e-6, 1e-9}) {
      const double x = common::GammaQuantile(shape, log_gamma, {1.0 - q, q});
      EXPECT_NEAR(stats::RegularizedGammaQ(shape, x) / q, 1.0, 1e-9)
          << "shape " << shape << " q " << q;
    }
  }
  // Adjacent hashes at the very top stay ordered: the monotonicity a group's
  // single inversion rests on.
  const double log_gamma = common::LogGamma(0.1);
  double prev = 0.0;
  for (uint64_t gap : {uint64_t{1} << 40, uint64_t{1} << 20, uint64_t{1} << 11, uint64_t{0}}) {
    const double x = common::GammaQuantile(0.1, log_gamma, common::UnitFromBits(~gap));
    EXPECT_GE(x, prev) << "gap " << gap;
    prev = x;
  }
}

TEST(ThompsonPolicyTest, PickFrequenciesMatchSerialLoop) {
  // A table with a 70-chunk belief group (inverted once per pick), mid-sized
  // and singleton groups (drawn per chunk), and an ineligible chunk: the
  // keyed kernel and the serial loop it replaced must pick each chunk equally
  // often. Two-sample chi-square over the chunks either side picked.
  constexpr size_t kChunks = 90;
  constexpr size_t kShared = 70;
  static_assert(kShared >= ThompsonPolicy::kGroupCrossover, "group path untested");
  constexpr int kPicks = 40000;
  ChunkStatsTable stats(kChunks);
  for (size_t j = 0; j < kChunks; ++j) {
    const size_t samples = j < kShared ? 3 : 1 + j % 7;
    for (size_t i = 0; i < samples; ++i) {
      stats.Update(j, j >= kShared && i == 0 ? 1 : 0, 0);
    }
  }
  std::vector<bool> eligible(kChunks, true);
  eligible[75] = false;
  ThompsonPolicy policy;
  common::Rng keyed_rng(31), serial_rng(32);
  std::vector<double> keyed(kChunks, 0.0), serial(kChunks, 0.0);
  for (int i = 0; i < kPicks; ++i) {
    keyed[policy.PickChunk(stats, eligible, keyed_rng)] += 1.0;
    serial[SerialThompsonPick(stats, eligible, {}, serial_rng)] += 1.0;
  }
  EXPECT_EQ(keyed[75], 0.0);
  double chi2 = 0.0;
  int cells = 0;
  for (size_t j = 0; j < kChunks; ++j) {
    if (keyed[j] + serial[j] == 0.0) continue;
    chi2 += (keyed[j] - serial[j]) * (keyed[j] - serial[j]) / (keyed[j] + serial[j]);
    ++cells;
  }
  const double dof = static_cast<double>(cells - 1);
  const double p_value = stats::RegularizedGammaQ(dof / 2.0, chi2 / 2.0);
  EXPECT_GT(p_value, 1e-3) << "chi2 " << chi2 << " over " << cells << " chunks";
  // The group really is one: all of its chunks are picked.
  for (size_t j = 0; j < kShared; ++j) EXPECT_GT(keyed[j], 0.0) << "chunk " << j;
}

TEST(BayesUcbPolicyTest, FavorsUnsampledChunksEarly) {
  // An unsampled chunk has a wide belief; its upper quantile should beat a
  // sampled chunk with mediocre returns.
  ChunkStatsTable stats(2);
  for (int i = 0; i < 200; ++i) stats.Update(0, i % 50 == 0 ? 1 : 0, 0);
  BayesUcbPolicy policy;
  common::Rng rng(5);
  int unexplored_picks = 0;
  for (int i = 0; i < 100; ++i) {
    if (policy.PickChunk(stats, AllEligible(2), rng) == 1) ++unexplored_picks;
  }
  EXPECT_GT(unexplored_picks, 90);
}

TEST(BayesUcbPolicyTest, ConvergesToBestChunk) {
  ChunkStatsTable stats(2);
  for (int i = 0; i < 500; ++i) stats.Update(0, 0, 0);
  for (int i = 0; i < 500; ++i) stats.Update(1, i % 5 == 0 ? 1 : 0, 0);
  BayesUcbPolicy policy;
  common::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy.PickChunk(stats, AllEligible(2), rng), 1u);
  }
}

TEST(GreedyPolicyTest, PicksHighestPointEstimate) {
  ChunkStatsTable stats(3);
  for (int i = 0; i < 10; ++i) stats.Update(0, 0, 0);
  for (int i = 0; i < 10; ++i) stats.Update(1, 1, 0);
  for (int i = 0; i < 10; ++i) stats.Update(2, i < 5 ? 1 : 0, 0);
  GreedyPolicy policy;
  common::Rng rng(7);
  EXPECT_EQ(policy.PickChunk(stats, AllEligible(3), rng), 1u);
}

TEST(GreedyPolicyTest, BreaksTiesRandomly) {
  ChunkStatsTable stats(3);  // All identical: three-way tie.
  GreedyPolicy policy;
  common::Rng rng(8);
  std::map<size_t, int> counts;
  for (int i = 0; i < 6000; ++i) {
    ++counts[policy.PickChunk(stats, AllEligible(3), rng)];
  }
  for (size_t j = 0; j < 3; ++j) EXPECT_GT(counts[j], 1500);
}

TEST(GreedyPolicyTest, CanGetStuckOnLuckyChunk) {
  // The failure mode the paper warns about (Sec. III-B): one early lucky
  // result keeps greedy locked on a chunk even though another chunk is
  // unexplored. With alpha0=.1, beta0=1, the lucky chunk's estimate
  // 1.1/(n+1) stays above the fresh chunk's prior mean 0.1 until n reaches
  // 10 — greedy wastes all of those samples on the lucky chunk.
  ChunkStatsTable stats(2);
  stats.Update(0, 1, 0);  // One lucky hit in one sample: estimate ~1.0.
  GreedyPolicy policy;
  common::Rng rng(9);
  for (int round = 0; round < 9; ++round) {
    const size_t pick = policy.PickChunk(stats, AllEligible(2), rng);
    EXPECT_EQ(pick, 0u) << "round " << round;
    stats.Update(0, 0, 0);  // The lucky chunk never pays off again.
  }
  EXPECT_EQ(stats.State(1).n, 0u);  // Chunk 1 never sampled during the streak.
  // Thompson sampling under the same history does explore chunk 1.
  ThompsonPolicy thompson;
  int thompson_explores = 0;
  for (int i = 0; i < 2000; ++i) {
    if (thompson.PickChunk(stats, AllEligible(2), rng) == 1) ++thompson_explores;
  }
  EXPECT_GT(thompson_explores, 100);
}

TEST(UniformChunkPolicyTest, UniformOverEligible) {
  ChunkStatsTable stats(4);
  for (int i = 0; i < 100; ++i) stats.Update(2, 10, 0);  // Stats are ignored.
  UniformChunkPolicy policy;
  common::Rng rng(10);
  std::vector<bool> eligible{true, true, false, true};
  std::map<size_t, int> counts;
  for (int i = 0; i < 9000; ++i) {
    ++counts[policy.PickChunk(stats, eligible, rng)];
  }
  EXPECT_EQ(counts[2], 0);
  for (size_t j : {size_t{0}, size_t{1}, size_t{3}}) EXPECT_GT(counts[j], 2500);
}

TEST(PolicyNamesTest, Names) {
  EXPECT_EQ(ThompsonPolicy().name(), "thompson");
  EXPECT_EQ(BayesUcbPolicy().name(), "bayes-ucb");
  EXPECT_EQ(GreedyPolicy().name(), "greedy");
  EXPECT_EQ(UniformChunkPolicy().name(), "uniform-chunk");
}

}  // namespace
}  // namespace core
}  // namespace exsample
