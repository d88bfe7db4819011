#ifndef EXSAMPLE_CORE_BELIEF_POLICY_H_
#define EXSAMPLE_CORE_BELIEF_POLICY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
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
  virtual void SetChunkPriors(std::vector<BeliefParams> priors) {
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
/// and take the argmax. On the first iteration all beliefs are identical, so
/// the pick is uniform.
///
/// The draws are keyed, not serial. Each pick takes exactly one `u64` key
/// from `rng`, and chunk j's draw is a pure function of (key, j, shape_j,
/// rate_j), so no draw depends on the order the chunks are visited in:
///
/// - **Belief groups.** Eligible chunks whose beliefs have bit-identical
///   (shape, rate) form a group. In a group of at least `kGroupCrossover`
///   members every draw is an inversion x_j = F^{-1}(U_j), with
///   U_j = `UnitFromBits(KeyedHash(key, j))`. Inversion is monotone, so the
///   group's largest draw belongs to its largest U: the pick hashes every
///   member and inverts once per group (`common::GammaQuantile`).
/// - **Small groups** (warm-started priors, or late queries whose chunks have
///   drifted apart) draw each member by Marsaglia–Tsang from a
///   `common::SplitMixStream` seeded with the same hash. That costs what a
///   serial draw does; the pick's running best is passed as the floor, so
///   boosted draws that cannot win skip their `pow`.
///
/// Ties go to the lowest chunk index: equal U within a group, and equal draws
/// across groups. Group membership follows the table incrementally: a chunk
/// moves only when its (n, N1) or its eligibility changed since the last
/// pick; `SetChunkPriors`, or a pick over a different table, regroups
/// everything.
class ThompsonPolicy : public BeliefChunkPolicy {
 public:
  /// Groups below this size draw per member; from it on, one inversion per
  /// group is cheaper. Set from `bench_micro`: `BM_ThompsonGroupInversion`
  /// costs 0.5–1.5 us (up to 3 us for shape 0.1 near x = 1.1) and
  /// `BM_ThompsonKeyedDraw` 15–35 ns, so an inversion costs about as much as
  /// 30–90 keyed draws.
  static constexpr size_t kGroupCrossover = 64;

  explicit ThompsonPolicy(BeliefParams params = {}) : BeliefChunkPolicy(params) {}
  size_t PickChunk(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                   common::Rng& rng) override;
  std::string name() const override { return "thompson"; }
  void SetChunkPriors(std::vector<BeliefParams> priors) override;

  /// \brief The pick for a given key, without touching a generator:
  /// `PickChunk` is `PickKeyed(stats, eligible, rng.NextU64())`.
  size_t PickKeyed(const ChunkStatsTable& stats, const std::vector<bool>& eligible,
                   uint64_t key);

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // A chunk's place in its group. Every `ChunkStatsTable::Update` bumps n,
  // so the low bits of the n it was grouped at tell whether its belief may
  // have moved. 16 bytes, so a 60-chunk table's slots stay below glibc's
  // 1 KiB large-request size (see ROADMAP's dead ends on first-pick
  // allocations).
  struct Slot {
    uint32_t n = 0;
    uint32_t group = kNone;  // kNone: ineligible or not yet grouped.
    uint32_t prev = kNone;   // Neighbors in the group's member list.
    uint32_t next = kNone;
  };
  struct Group {
    double shape = 0.0;
    double rate = 0.0;
    common::GammaSampler sampler;
    double log_gamma = 0.0;  // Computed when the group first inverts.
    bool has_log_gamma = false;
    uint32_t size = 0;
    uint32_t head = kNone;  // First member; next free group once freed.
    // This pick's largest hash among the members, and its chunk.
    uint64_t best_hash = 0;
    uint32_t best_chunk = kNone;
  };

  void ResetGroups(size_t num_chunks);
  void Join(uint32_t chunk, const ChunkState& state);
  void Leave(uint32_t chunk);
  // Home bucket of a belief in `index_`.
  size_t Bucket(double shape, double rate) const;

  // Everything below is sized once per chunk count, so a pick allocates
  // nothing once the groups exist.
  const ChunkStatsTable* table_ = nullptr;  // The table the slots follow.
  std::vector<Slot> slots_;
  std::vector<Group> groups_;
  uint32_t free_groups_ = kNone;  // Head of the freed groups, linked by `head`.
  // Open addressing (linear probing) from belief to group id; a power of two
  // at least twice the chunk count, so it never fills.
  std::vector<uint32_t> index_;
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
