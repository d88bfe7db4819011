#include "core/belief_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/estimator.h"

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

// The Thompson pick as it was before the sampler-constant cache and the
// `pow` skip: a fresh belief and a full draw for every eligible chunk, argmax
// with reservoir sampling over exact ties. `priors` empty means the flat default prior.
size_t ReferenceThompsonPick(const ChunkStatsTable& stats,
                             const std::vector<bool>& eligible,
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

// Drives ThompsonPolicy and the reference side by side from one seed over a
// shared stats table, asserting every pick agrees.
class ThompsonReferenceHarness {
 public:
  ThompsonReferenceHarness(size_t chunks, uint64_t seed)
      : stats(chunks), eligible(chunks, true), rng_(seed), ref_rng_(seed) {}

  void SetPriors(std::vector<BeliefParams> priors) {
    policy_.SetChunkPriors(priors);
    priors_ = std::move(priors);
  }

  size_t Pick() {
    const size_t pick = policy_.PickChunk(stats, eligible, rng_);
    EXPECT_EQ(pick, ReferenceThompsonPick(stats, eligible, priors_, ref_rng_))
        << "pick " << picks_;
    ++picks_;
    return pick;
  }

  // Both generators must end in the same state: same draws, same count.
  void ExpectSameRngState() { EXPECT_EQ(rng_.NextU64(), ref_rng_.NextU64()); }

  ChunkStatsTable stats;
  std::vector<bool> eligible;

 private:
  ThompsonPolicy policy_;
  std::vector<BeliefParams> priors_;
  common::Rng rng_;
  common::Rng ref_rng_;
  int picks_ = 0;
};

// Runs `picks` picks with outcomes from `world`: every fifth chunk is
// productive, repeat sightings push N1 down (below zero at times), and the
// eligible set is re-drawn with holes every 50 picks.
void RunAgainstReference(ThompsonReferenceHarness* harness, int picks,
                         common::Rng& world) {
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

TEST(ThompsonPolicyTest, FlatPriorMatchesReferenceAcrossShapes) {
  // Productive chunks climb to shapes well above 1 while the rest stay at
  // 0.1 (the boosted path).
  for (size_t chunks : {size_t{1}, size_t{7}, size_t{64}, size_t{1600}}) {
    ThompsonReferenceHarness harness(chunks, 100 + chunks);
    common::Rng world(200 + chunks);
    RunAgainstReference(&harness, chunks == 1600 ? 300 : 2000, world);
    harness.ExpectSameRngState();
    uint64_t max_n1 = 0;
    for (size_t j = 0; j < chunks; ++j) {
      max_n1 = std::max(max_n1, harness.stats.N1NonNegative(j));
    }
    EXPECT_GE(max_n1, 2u) << chunks << " chunks";
  }
}

TEST(ThompsonPolicyTest, PerChunkPriorsMatchReference) {
  // Warm-start priors on both sides of alpha0 = 1, installed mid-run and then
  // replaced: each install must refresh the cached sampler constants.
  constexpr size_t kChunks = 96;
  ThompsonReferenceHarness harness(kChunks, 300);
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
  harness.ExpectSameRngState();
}

TEST(ThompsonPolicyTest, N1RisingThenFallingBelowZeroMatchesReference) {
  // Chunk 0's N1 goes 0 -> 4 -> 1 -> -2 (clamped to 0) -> 3 -> 19, and chunk
  // 1 sits at N1 = 3: the cached constants must follow chunk 0 in both
  // directions, and N1 values that share a cache slot (3 and 19) must not
  // reuse each other's.
  ThompsonReferenceHarness harness(3, 400);
  harness.stats.Update(1, 3, 0);
  const std::vector<std::pair<size_t, size_t>> steps{
      {4, 0}, {0, 3}, {0, 3}, {5, 0}, {16, 0}};
  for (const auto& [found, once] : steps) {
    harness.stats.Update(0, found, once);
    for (int i = 0; i < 200; ++i) harness.Pick();
  }
  EXPECT_EQ(harness.stats.State(0).n1, 19);
  harness.ExpectSameRngState();
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
