#include "core/belief_policy.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/hash.h"
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

void ThompsonPolicy::SetChunkPriors(std::vector<BeliefParams> priors) {
  BeliefChunkPolicy::SetChunkPriors(std::move(priors));
  ResetGroups(slots_.size());
}

void ThompsonPolicy::ResetGroups(size_t num_chunks) {
  slots_.assign(num_chunks, Slot{});
  groups_.clear();
  free_groups_ = kNone;
  size_t buckets = 2;
  while (buckets < 2 * num_chunks) buckets *= 2;
  index_.assign(buckets, kNone);
}

size_t ThompsonPolicy::Bucket(double shape, double rate) const {
  uint64_t shape_bits, rate_bits;
  std::memcpy(&shape_bits, &shape, sizeof shape);
  std::memcpy(&rate_bits, &rate, sizeof rate);
  return static_cast<size_t>(common::HashCombine(shape_bits, rate_bits)) &
         (index_.size() - 1);
}

void ThompsonPolicy::Join(uint32_t chunk, const ChunkState& state) {
  if (slots_[chunk].group != kNone) Leave(chunk);
  Slot& slot = slots_[chunk];
  slot.n = static_cast<uint32_t>(state.n);
  const BeliefParams& prior = PriorFor(chunk);
  const double shape = static_cast<double>(state.n1 > 0 ? state.n1 : 0) + prior.alpha0;
  const double rate = static_cast<double>(state.n) + prior.beta0;
  const size_t mask = index_.size() - 1;
  size_t bucket = Bucket(shape, rate);
  while (index_[bucket] != kNone) {
    const Group& group = groups_[index_[bucket]];
    if (group.shape == shape && group.rate == rate) break;
    bucket = (bucket + 1) & mask;
  }
  if (index_[bucket] == kNone) {
    uint32_t id;
    if (free_groups_ == kNone) {
      id = static_cast<uint32_t>(groups_.size());
      groups_.emplace_back();
    } else {
      id = free_groups_;
      free_groups_ = groups_[id].head;
    }
    Group& group = groups_[id];
    group.shape = shape;
    group.rate = rate;
    group.sampler = common::GammaSampler(shape);
    group.has_log_gamma = false;
    group.size = 0;
    group.head = kNone;
    group.best_chunk = kNone;
    index_[bucket] = id;
  }
  Group& group = groups_[index_[bucket]];
  slot.group = index_[bucket];
  slot.prev = kNone;
  slot.next = group.head;
  if (group.head != kNone) slots_[group.head].prev = chunk;
  group.head = chunk;
  group.size += 1;
}

void ThompsonPolicy::Leave(uint32_t chunk) {
  Slot& slot = slots_[chunk];
  const uint32_t id = slot.group;
  Group& group = groups_[id];
  if (slot.prev != kNone) slots_[slot.prev].next = slot.next;
  else group.head = slot.next;
  if (slot.next != kNone) slots_[slot.next].prev = slot.prev;
  slot.group = kNone;
  if (--group.size > 0) return;
  // Free the group: backward-shift deletion keeps every probe chain intact.
  const size_t mask = index_.size() - 1;
  size_t hole = Bucket(group.shape, group.rate);
  while (index_[hole] != id) hole = (hole + 1) & mask;
  for (size_t probe = (hole + 1) & mask; index_[probe] != kNone;
       probe = (probe + 1) & mask) {
    const Group& other = groups_[index_[probe]];
    const size_t home = Bucket(other.shape, other.rate);
    // `other` may move into the hole unless its home lies in (hole, probe].
    const bool stays = hole <= probe ? (hole < home && home <= probe)
                                     : (hole < home || home <= probe);
    if (!stays) {
      index_[hole] = index_[probe];
      hole = probe;
    }
  }
  index_[hole] = kNone;
  group.head = free_groups_;
  free_groups_ = id;
}

size_t ThompsonPolicy::PickChunk(const ChunkStatsTable& stats,
                                 const std::vector<bool>& eligible, common::Rng& rng) {
  return PickKeyed(stats, eligible, rng.NextU64());
}

size_t ThompsonPolicy::PickKeyed(const ChunkStatsTable& stats,
                                 const std::vector<bool>& eligible, uint64_t key) {
  CheckPriors(stats);
  const size_t num_chunks = stats.NumChunks();
  if (&stats != table_ || slots_.size() != num_chunks) {
    ResetGroups(num_chunks);
    table_ = &stats;
  }
  for (Group& group : groups_) group.best_chunk = kNone;

  // One pass: bring each chunk's membership up to date, hash it, and keep
  // each group's largest hash. A chunk joins or leaves only at its own
  // visit, so a group's best covers exactly its eligible members.
  for (uint32_t j = 0; j < num_chunks; ++j) {
    Slot& slot = slots_[j];
    if (!eligible[j]) {
      if (slot.group != kNone) Leave(j);
      continue;
    }
    const ChunkState& state = stats.State(j);
    if (slot.group == kNone || static_cast<uint32_t>(state.n) != slot.n) Join(j, state);
    const uint64_t hash = common::KeyedHash(key, j);
    Group& group = groups_[slot.group];
    if (group.best_chunk == kNone || hash > group.best_hash) {
      group.best_hash = hash;
      group.best_chunk = j;
    }
  }

  double best = -std::numeric_limits<double>::infinity();
  size_t best_idx = num_chunks;  // Sentinel: no eligible chunk seen yet.
  const auto consider = [&](double draw, size_t j) {
    if (draw > best || (draw == best && j < best_idx)) {
      best = draw;
      best_idx = j;
    }
  };
  // Large groups first: their maxima set a high floor for the rest.
  for (Group& group : groups_) {
    if (group.size < kGroupCrossover) continue;
    if (!group.has_log_gamma) {
      group.log_gamma = common::LogGamma(group.shape);
      group.has_log_gamma = true;
    }
    consider(common::GammaQuantile(group.shape, group.log_gamma,
                                   common::UnitFromBits(group.best_hash)) /
                 group.rate,
             group.best_chunk);
  }
  for (const Group& group : groups_) {
    if (group.size == 0 || group.size >= kGroupCrossover) continue;
    for (uint32_t j = group.head; j != kNone; j = slots_[j].next) {
      common::SplitMixStream stream(common::KeyedHash(key, j));
      consider(group.sampler.Draw(stream, group.rate, best), j);
    }
  }
  common::Check(best_idx < num_chunks, "PickChunk requires at least one eligible chunk");
  return best_idx;
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
