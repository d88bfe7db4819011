#ifndef EXSAMPLE_QUERY_SHARD_DISPATCH_H_
#define EXSAMPLE_QUERY_SHARD_DISPATCH_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "detect/detector.h"
#include "video/decode.h"
#include "video/sharded_repository.h"

namespace exsample {
namespace query {

/// \brief One shard's execution resources: the detector that serves its
/// frames, an optional decode store, and an optional private I/O pool.
///
/// In a real deployment this is "one machine's worth" of a query: the shard's
/// video lives next to its decoder and detector, and only frame ids and
/// detections cross the network. In this reproduction the members are
/// in-process objects; the seam is what matters.
struct ShardContext {
  /// Serves `Detect` for the shard's frames. Required for non-empty shards.
  /// Frames are addressed by *global* id (the shard's detector shares the
  /// global ground truth), so a shard detector with the same options as the
  /// unsharded detector produces identical detections — the first half of the
  /// sharded-equals-unsharded equivalence contract.
  detect::ObjectDetector* detector = nullptr;
  /// Optional per-shard decode accounting. A shard's store keeps its own
  /// position state (each shard decodes independently), so sequential-read
  /// locality is per shard. Must be built over the *global* repository view.
  video::SimulatedVideoStore* store = nullptr;
  /// Optional private I/O pool the shard's *decode prefetch* work runs on
  /// (the disk+decoder next to the shard's video, kept separate from the
  /// detect pool so decode and inference overlap instead of contending).
  /// Null falls back to the prefetcher's own pool.
  common::ThreadPool* io_pool = nullptr;
};

/// \brief One session's view of a sharded repository: which shard owns each
/// picked frame and the per-shard contexts that serve it.
///
/// The dispatcher executes no detection itself. A sharded session submits
/// its batch to the shared `DetectorService` with each frame's owner
/// (`ShardOfFrame`); the service queues frames per shard and runs them
/// through `Context(shard).detector` on the shard's transport runner.
/// Per-shard cost lands in the session's shard trace parts
/// (`QuerySession::ShardParts`). Decode is routed per shard through
/// `PlanDecode` when every shard has a store. Results land in fixed batch
/// slots and detectors are per-frame deterministic, so shard routing never
/// reorders what the discriminator observes.
class ShardDispatcher {
 public:
  /// `repo` and every context member must outlive the dispatcher. `contexts`
  /// must have one entry per shard; non-empty shards require a detector.
  ShardDispatcher(const video::ShardedRepository* repo,
                  std::vector<ShardContext> contexts);

  size_t NumShards() const { return contexts_.size(); }
  const video::ShardedRepository& repo() const { return *repo_; }

  /// \brief The shard owning a global frame. Frames past the repository are a
  /// fatal error (the strategy layer never emits them).
  uint32_t ShardOfFrame(video::FrameId frame) const;

  /// \brief Simulated per-frame detector cost of one shard.
  double SecondsPerFrame(uint32_t shard) const;

  /// \brief True when every non-empty shard has a decode store (decode is
  /// then routed per shard instead of through the query-global store).
  bool HasStores() const { return has_stores_; }

  /// \brief Plans the decode of `frame` on `shard`'s store (which must be
  /// the frame's owner, as `ShardOfFrame` reports; advancing that shard's
  /// sequential position), without performing the decode work. The
  /// prefetcher calls this in batch order and later performs the plan on the
  /// shard's I/O pool. Requires `HasStores()`.
  video::ReadPlan PlanDecode(video::FrameId frame, uint32_t shard);

  const ShardContext& Context(uint32_t shard) const { return contexts_[shard]; }

 private:
  const video::ShardedRepository* repo_;
  std::vector<ShardContext> contexts_;
  bool has_stores_ = false;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_SHARD_DISPATCH_H_
