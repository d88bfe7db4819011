#ifndef EXSAMPLE_CORE_BELIEF_POLICY_H_
#define EXSAMPLE_CORE_BELIEF_POLICY_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/chunk_stats.h"
#include "core/estimator.h"

namespace exsample {
namespace core {

/// \brief Chooses which chunk to sample next from the per-chunk statistics
/// (Algorithm 1, lines 3–6 abstracted).
///
/// `eligible[j]` marks chunks that still have unsampled frames; policies must
/// never return an ineligible chunk. At least one must be eligible: picking
/// from none is fatal.
class ChunkPolicy {
 public:
  virtual ~ChunkPolicy() = default;

  /// \brief Picks the next chunk index.
  virtual size_t PickChunk(const ChunkStatsTable& stats,
                           const std::vector<bool>& eligible, common::Rng& rng) = 0;

  /// \brief Policy name for reports.
  virtual std::string name() const = 0;
};

/// \brief Shared base of the Gamma-belief policies: holds the flat prior and
/// optional *per-chunk* prior overrides.
///
/// Per-chunk priors are the cross-query warm-start seam
/// (`reuse::BeliefBank`): a later query for the same class seeds chunk j's
/// belief from earlier queries' accumulated posterior counts instead of the
/// flat (alpha0, beta0). This is a pure prior substitution — the update math
/// (Algorithm 1 lines 11–12, Eq. III.4) and the policy's scoring rule are
/// untouched, and with no overrides set behavior is bit-identical to before
/// the seam existed.
class BeliefChunkPolicy : public ChunkPolicy {
 public:
  explicit BeliefChunkPolicy(BeliefParams params) : params_(params) {}

  /// \brief Installs per-chunk prior overrides. `priors[j]` replaces the flat
  /// prior for chunk j; the vector's size must match the stats table the
  /// policy is used with (checked at pick time). Empty reverts to the flat
  /// prior.
  void SetChunkPriors(std::vector<BeliefParams> priors) {
    chunk_priors_ = std::move(priors);
  }

  /// \brief True when per-chunk priors are installed.
  bool HasChunkPriors() const { return !chunk_priors_.empty(); }

 protected:
  /// The prior belief of chunk `j`.
  const BeliefParams& PriorFor(size_t j) const {
    return chunk_priors_.empty() ? params_ : chunk_priors_[j];
  }
  /// Fatal when installed priors disagree with the table's chunk count.
  void CheckPriors(const ChunkStatsTable& stats) const;

  BeliefParams params_;
  std::vector<BeliefParams> chunk_priors_;
};

/// \brief Thompson sampling over Gamma beliefs (the paper's method,
/// Sec. III-C): draw R_j ~ Gamma(N1_j + alpha0, n_j + beta0) for every chunk
/// and take the argmax. Ties are broken by the randomness of the draws; on
/// the first iteration all beliefs are identical, so the pick is uniform.
///
/// The pick is the engine's hot loop. It reuses `common::GammaSampler`
/// constants across draws of the same shape N1 + alpha0, and passes its
/// running best to each draw so boosted draws that cannot win skip their
/// `pow`. Both are exact: the picks and the random numbers consumed are those
/// of drawing `MakeBelief(N1, n, prior).Sample(rng)` for every eligible
/// chunk.
class ThompsonPolicy : public BeliefChunkPolicy {
 public:
  explicit ThompsonPolicy(BeliefParams params = {}) : BeliefChunkPolicy(params) {}
  size_t PickChunk(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                   common::Rng& rng) override;
  std::string name() const override { return "thompson"; }

 private:
  // Sampler constants in a direct-mapped table indexed by clamped N1; a slot
  // is rebuilt whenever it holds a different shape. Under the flat prior
  // each N1 below the table size keeps its own slot, so nearly every draw
  // hits. Per-chunk priors that share an N1 evict each other, which costs
  // only the constants' recomputation. A fixed table rather than one entry
  // per chunk keeps a query's first pick free of a heap allocation.
  std::array<common::GammaSampler, 16> samplers_;
};

/// \brief Bayes-UCB (Kaufmann): use the upper 1 - 1/t quantile of the same
/// Gamma belief instead of a random draw. The paper reports results
/// indistinguishable from Thompson sampling (Sec. III-C).
class BayesUcbPolicy : public BeliefChunkPolicy {
 public:
  explicit BayesUcbPolicy(BeliefParams params = {}) : BeliefChunkPolicy(params) {}
  size_t PickChunk(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                   common::Rng& rng) override;
  std::string name() const override { return "bayes-ucb"; }
};

/// \brief Greedy point-estimate policy: argmax of (N1+alpha0)/(n+beta0) with
/// random tie-breaking. Included as the ablation the paper warns about: a raw
/// point estimate "could get stuck sampling chunks with an early lucky result
/// and ignore better chunks with unlucky early results" (Sec. III-B).
class GreedyPolicy : public BeliefChunkPolicy {
 public:
  explicit GreedyPolicy(BeliefParams params = {}) : BeliefChunkPolicy(params) {}
  size_t PickChunk(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                   common::Rng& rng) override;
  std::string name() const override { return "greedy"; }
};

/// \brief Uniform-random chunk choice (reduces ExSample to chunk-stratified
/// random sampling; with one chunk it is exactly random sampling).
class UniformChunkPolicy : public ChunkPolicy {
 public:
  size_t PickChunk(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                   common::Rng& rng) override;
  std::string name() const override { return "uniform-chunk"; }
};

}  // namespace core
}  // namespace exsample

#endif  // EXSAMPLE_CORE_BELIEF_POLICY_H_
