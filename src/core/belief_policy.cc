#include "core/belief_policy.h"

#include <cmath>
#include <limits>

#include "common/status.h"

namespace exsample {
namespace core {

namespace {

// Shared scan: returns the eligible index with the highest score; random
// tie-breaking via reservoir sampling over exact ties. `score(j, best)` gets
// the running best so a scorer may skip work for a score that cannot reach
// it; such a score must come back strictly below `best`.
template <typename ScoreFn>
size_t ArgmaxEligible(size_t num_chunks, const std::vector<bool>& eligible,
                      common::Rng& rng, ScoreFn&& score) {
  double best = -std::numeric_limits<double>::infinity();
  size_t best_idx = num_chunks;  // Sentinel: no eligible chunk seen yet.
  uint64_t ties = 0;
  for (size_t j = 0; j < num_chunks; ++j) {
    if (!eligible[j]) continue;
    const double s = score(j, best);
    if (s > best) {
      best = s;
      best_idx = j;
      ties = 1;
    } else if (s == best) {
      // Reservoir: replace with probability 1/ties so exact ties are uniform.
      ++ties;
      if (rng.NextBounded(ties) == 0) best_idx = j;
    }
  }
  common::Check(best_idx < num_chunks, "PickChunk requires at least one eligible chunk");
  return best_idx;
}

}  // namespace

void BeliefChunkPolicy::CheckPriors(const ChunkStatsTable& stats) const {
  common::Check(chunk_priors_.empty() || chunk_priors_.size() == stats.NumChunks(),
                "BeliefChunkPolicy: per-chunk priors disagree with chunk count");
}

size_t ThompsonPolicy::PickChunk(const ChunkStatsTable& stats,
                                 const std::vector<bool>& eligible, common::Rng& rng) {
  CheckPriors(stats);
  return ArgmaxEligible(stats.NumChunks(), eligible, rng, [&](size_t j, double best) {
    const BeliefParams& prior = PriorFor(j);
    const uint64_t n1 = stats.N1NonNegative(j);
    const double shape = static_cast<double>(n1) + prior.alpha0;
    common::GammaSampler& sampler = samplers_[n1 % samplers_.size()];
    if (sampler.shape() != shape) sampler = common::GammaSampler(shape);
    return sampler.Draw(rng, static_cast<double>(stats.State(j).n) + prior.beta0, best);
  });
}

size_t BayesUcbPolicy::PickChunk(const ChunkStatsTable& stats,
                                 const std::vector<bool>& eligible, common::Rng& rng) {
  CheckPriors(stats);
  // Quantile level 1 - 1/t grows toward 1 as evidence accumulates, shrinking
  // the exploration bonus (Kaufmann's Bayes-UCB index).
  const double t = static_cast<double>(stats.TotalSamples()) + 1.0;
  const double level = std::min(1.0 - 1.0 / t, 1.0 - 1e-12);
  return ArgmaxEligible(stats.NumChunks(), eligible, rng, [&](size_t j, double) {
    return MakeBelief(stats.N1NonNegative(j), stats.State(j).n, PriorFor(j))
        .Quantile(level);
  });
}

size_t GreedyPolicy::PickChunk(const ChunkStatsTable& stats,
                               const std::vector<bool>& eligible, common::Rng& rng) {
  CheckPriors(stats);
  return ArgmaxEligible(stats.NumChunks(), eligible, rng, [&](size_t j, double) {
    return MakeBelief(stats.N1NonNegative(j), stats.State(j).n, PriorFor(j)).Mean();
  });
}

size_t UniformChunkPolicy::PickChunk(const ChunkStatsTable& stats,
                                     const std::vector<bool>& eligible,
                                     common::Rng& rng) {
  return ArgmaxEligible(stats.NumChunks(), eligible, rng,
                        [](size_t, double) { return 0.0; });
}

}  // namespace core
}  // namespace exsample
