#ifndef EXSAMPLE_QUERY_PREFETCH_H_
#define EXSAMPLE_QUERY_PREFETCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/parking.h"
#include "common/ring_buffer.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "query/shard_dispatch.h"
#include "video/decode.h"
#include "video/repository.h"

namespace exsample {
namespace query {

/// \brief Decode-ahead configuration of a `DecodePrefetcher`.
struct PrefetchOptions {
  /// Maximum frames decoded (or decoding) ahead of the frame the detect
  /// stage last waited on — the bounded in-flight window. 0 disables
  /// overlap: every read is planned *and* performed inline at submit time,
  /// which is exactly the synchronous decode stage.
  size_t depth = 4;
};

/// \brief Running tallies of a prefetcher's work.
struct PrefetchStats {
  uint64_t batches = 0;
  uint64_t frames = 0;
  /// Reads handed to a pool worker (decode overlapped with detection).
  uint64_t async_reads = 0;
  /// Of `async_reads`, those the coordinator performed itself while waiting
  /// in `WaitFrame`/`Drain` because no worker had started them yet. A subset
  /// of `async_reads` — they were queued for overlap and would have been
  /// overlapped had a worker been free — so `async_reads + inline_reads ==
  /// frames` holds whoever performed them.
  uint64_t helped_reads = 0;
  /// Reads performed inline on the coordinator (depth 0, or no pool).
  uint64_t inline_reads = 0;
  /// Largest decode-ahead distance observed; never exceeds `depth`.
  size_t max_ahead = 0;
};

/// \brief Pipelined decode stage: decodes a picked batch's frames on a worker
/// pool while the detect stage consumes earlier frames of the batch.
///
/// The prefetcher is what lets the decoder work *ahead* of the detector
/// instead of idling during inference (EKO's observation that decode-side
/// work is a first-class bottleneck for adaptive sampling). It preserves the
/// library's determinism contract by splitting every read into the store's
/// `PlanRead` / `PerformRead` halves:
///
///  - **Accounting is synchronous.** `SubmitBatch` plans every read on the
///    coordinator thread, in batch order, against the owning store's
///    sequential position state — so the charged seconds (and the per-shard
///    attribution) are bit-identical to the synchronous decode loop, whatever
///    the pool does afterwards.
///  - **Work is asynchronous.** The planned reads are performed on the pool
///    (or each shard's private I/O pool) — and by the coordinator whenever it
///    would otherwise wait, see below — with at most `depth` frames in
///    flight beyond the detect stage's consumption cursor; decoded frames
///    land in a cache keyed by `FrameId` until the batch completes.
///
/// Consumption is strictly in batch order: `WaitFrame(i)` blocks until frame
/// `i` is decoded, advancing the window so later frames start decoding while
/// the caller runs detection on earlier ones. One coordinator thread drives
/// the prefetcher (submit/wait); only the decode tasks run elsewhere.
///
/// ## The waiting coordinator is a decode lane
///
/// A thread blocked in the prefetcher does decode work instead of parking.
/// Every slot carries an atomic claim word tagged with the batch generation;
/// the pool task and the waiting coordinator race to claim a queued read and
/// the loser skips it, so each planned read is performed exactly once. The
/// help policy is split by what the caller does next:
///
///  - `Drain` (a service flush, or the next `SubmitBatch`) has nothing to do
///    but wait, so it claims any unstarted slot of the window: the awaited
///    one first, then from the back (the worker pops from the front).
///  - `WaitFrame` is about to run detection on the frame, so it claims only
///    the awaited slot, and only if nobody started it — decoding a later
///    frame there would hold the detect stage behind a read the I/O pool
///    could have overlapped.
///
/// With an I/O pool of one worker, a draining coordinator therefore doubles
/// the decode lanes. Accounting is untouched: plans are still made on the
/// coordinator in batch order, and `PerformRead` touches no state, so which
/// thread performs a read can never change a trace.
///
/// ## Completion path (lock-free producers)
///
/// A decode task that won its claim pushes its slot index into a bounded
/// MPSC completion ring and wakes the coordinator through a waiter-counted
/// `Parker` — when nobody is blocked in `WaitFrame`/`Drain` (the common
/// case while detection is the bottleneck) a completion costs one ring
/// push and one fence, no mutex and no condition-variable syscall. The
/// ring can never overflow: in-order consumption bounds unconsumed
/// completions by the window depth. Reads the coordinator performs itself
/// are marked ready directly. `mu_` survives only on the coordinator/
/// observer side (ready bits, batch rebuild, `Cached`), where it is
/// uncontended by design.
///
/// A task that lost its claim — or one left queued from an earlier batch,
/// which sees a claim word at or above its own generation — does nothing, so
/// `SubmitBatch` never waits for the pool's queue to empty; only growing the
/// claim array waits until no task is in flight.
///
/// A real decoder backend slots in behind the same seam: implement
/// `PlanRead` (index the container, price the read) and `PerformRead` (do
/// it) on the store, and the prefetcher overlaps real decode with real
/// inference unchanged.
class DecodePrefetcher {
 public:
  /// Unsharded: all reads are planned on and performed by `store`; decode
  /// tasks run on `pool`. A null `pool` (or `depth == 0`) degrades to
  /// synchronous inline decode — same charges, no overlap.
  DecodePrefetcher(video::SimulatedVideoStore* store, common::ThreadPool* pool,
                   PrefetchOptions options);

  /// Sharded with per-shard stores (`dispatcher->HasStores()`): each frame is
  /// planned on its owning shard's store (per-shard sequential position, as
  /// the synchronous path prices it) and performed on the shard's `io_pool`,
  /// falling back to `pool`.
  DecodePrefetcher(ShardDispatcher* dispatcher, common::ThreadPool* pool,
                   PrefetchOptions options);

  /// Drains any in-flight decode work.
  ~DecodePrefetcher();

  DecodePrefetcher(const DecodePrefetcher&) = delete;
  DecodePrefetcher& operator=(const DecodePrefetcher&) = delete;

  /// \brief Plans the whole batch (deterministic, batch-order accounting) and
  /// starts decoding up to `depth` frames ahead. Returns the per-frame
  /// charged seconds, parallel to `frames` — exactly what the synchronous
  /// loop would have charged, in the same order. For the sharded
  /// constructor, `shards` must hold each frame's owner. Any previous batch
  /// is drained first.
  const std::vector<double>& SubmitBatch(common::Span<video::FrameId> frames,
                                         common::Span<const uint32_t> shards = {});

  /// \brief Blocks until frame `index` of the current batch is decoded and
  /// opens the window one frame further. Frames must be waited on in batch
  /// order (the detect stage consumes in order; that order is load-bearing
  /// for the window bound). Performs frame `index` itself if no worker has
  /// started it, and no other read.
  void WaitFrame(size_t index);

  /// \brief Waits for every frame of the current batch (detect consumed the
  /// whole batch, or the batch is being abandoned), performing any read of
  /// the window no worker has started.
  void Drain();

  /// \brief True when `frame` belongs to the current batch and its decode has
  /// completed (it is present in the cache). Observability/test hook.
  bool Cached(video::FrameId frame) const;

  size_t depth() const { return options_.depth; }
  const PrefetchStats& stats() const { return stats_; }

 private:
  struct Slot {
    video::FrameId frame = 0;
    const video::SimulatedVideoStore* store = nullptr;  // Performs the read.
    common::ThreadPool* pool = nullptr;                 // Runs the read.
    video::ReadPlan plan;
    bool ready = false;  // Written under mu_ (inline, helped, or ring drain).
  };

  /// Which queued reads a waiting coordinator may perform itself.
  enum class Help { kAwaitedOnly, kWindow };

  /// Starts decode tasks for every slot inside the window
  /// `[cursor_, cursor_ + depth)` not yet enqueued. Called with mu_ held.
  void EnqueueAheadLocked();

  /// Claims queued slot \p index for batch \p generation. True for exactly
  /// one caller per (slot, generation): the one that must perform the read.
  bool TryClaim(size_t index, uint64_t generation);

  /// Marks a performed slot ready; dies if it already was (a double claim).
  /// Called with mu_ held.
  void MarkReadyLocked(size_t index);

  /// Pops every queued completion and marks its slot ready. Called with
  /// mu_ held (pops themselves are lock-free; mu_ covers the ready bits).
  void DrainCompletionsLocked();

  /// Claims one unstarted read per \p help — slot \p index, else (for
  /// `kWindow`) the last claimable slot of `[cursor_, enqueued_)` — and
  /// performs it with mu_ released. Returns false when nothing was claimable.
  bool HelpOneLocked(std::unique_lock<std::mutex>& lock, size_t index, Help help);

  /// Blocks until slots_[index] is ready: perform whatever reads \p help
  /// allows, spin-drain the completion ring, then park on ready_parker_.
  /// Called with mu_ held via \p lock; the lock is released while reading
  /// or parked so observers are never blocked behind the coordinator.
  void WaitReadyLocked(std::unique_lock<std::mutex>& lock, size_t index, Help help);

  video::SimulatedVideoStore* store_ = nullptr;  // Unsharded constructor.
  ShardDispatcher* dispatcher_ = nullptr;        // Sharded constructor.
  common::ThreadPool* pool_ = nullptr;
  PrefetchOptions options_;
  PrefetchStats stats_;

  std::vector<Slot> slots_;       // Current batch; stable while tasks run.
  std::vector<double> charges_;   // Per-frame seconds, returned to the caller.
  // Decoded-frame cache for the current batch: FrameId -> slot index. Entries
  // are inserted at plan time and looked up under mu_ together with the
  // slot's ready bit; the cache is bounded by the batch (plus never more than
  // `depth` frames decoded ahead of the consumer) and cleared on the next
  // SubmitBatch.
  std::unordered_map<video::FrameId, size_t> cache_;
  size_t enqueued_ = 0;  // Slots handed to a pool (prefix of the batch).
  size_t cursor_ = 0;    // First slot not yet waited on by the consumer.

  // Claim words, one per slot index: the generation of the last batch whose
  // read of that slot somebody claimed. Words only grow, so a task from batch
  // g finds its slot at >= g once that batch is done and skips it. The array
  // outlives batches (stale tasks read it) and is reallocated only when a
  // batch outgrows it, with no task in flight.
  std::unique_ptr<std::atomic<uint64_t>[]> claims_;
  size_t claims_capacity_ = 0;
  uint64_t generation_ = 0;  // Current batch; bumped by SubmitBatch.

  // Completion plumbing: decode tasks push their slot index here and wake
  // the parker; nothing on the producer side takes mu_. Capacity `depth + 1`
  // is an invariant, not a tuning knob: WaitFrame/Drain advance cursor_ and
  // enqueue ahead *before* draining the awaited slot, so the unpopped set
  // spans `[index, index + 1 + depth)` — at most `depth + 1` completions.
  // Every slot below the awaited index has had its completion popped already
  // (consumption is in order).
  std::unique_ptr<common::MpscRingBuffer<size_t>> completions_;
  common::Parker ready_parker_;
  // Decode tasks still touch the parker after their completion becomes
  // visible, and stale tasks read claims_ long after their batch; the
  // destructor (and a claims_ reallocation) waits for this to hit zero.
  std::atomic<uint64_t> inflight_tasks_{0};

  mutable std::mutex mu_;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_PREFETCH_H_
