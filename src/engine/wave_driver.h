#ifndef EXSAMPLE_ENGINE_WAVE_DRIVER_H_
#define EXSAMPLE_ENGINE_WAVE_DRIVER_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/query_session.h"
#include "query/detector_service.h"

namespace exsample {
namespace engine {

/// \brief Executes a planned sequence of step grants in *waves* over a set
/// of `QuerySession`s sharing one (optional) `query::DetectorService`.
///
/// A wave is the unit cross-session coalescing works in: every granted
/// session begins its step (submitting its detect work to the shared
/// service), the service flushes the merged per-shard queues as full device
/// batches, and the wave's sessions finish their steps in submission order.
/// A session granted while its step is still pending has that step finished
/// first — a session never has two steps pending. Without a service the
/// waves degenerate to plain sequential stepping.
///
/// **Pipelined rounds.** A driver built with `pipeline` set splits a round
/// into two half-waves when that pays: it ships half-wave A (decode drain,
/// then send) without waiting, begins and decodes half-wave B while A is on
/// the wire, ships B, then finishes A at the end of the round and leaves B
/// on the wire while the caller plans the next round and begins A's next
/// steps — B is finished when its first session is granted again. Per
/// round, the coordinator's decode work D then hides the wire round trip R
/// instead of adding to it: max(D, 2R, R + D/2) instead of D + R, which is
/// shorter exactly when R < D. So a round is split only when the previous
/// round measured D > R (`DetectorService::TakeFlushTiming`), it has at
/// least two grants, and the transport runs batches off the coordinator
/// (`ShardTransport::Asynchronous`): local-transport engines, decode-free
/// workloads and single-session rounds keep one barrier wave. Steps still
/// finish in grant order, each frame is still detected by its own
/// session's detector context, and every order-sensitive stage still runs
/// on the coordinator in batch order, so no trace can change. Carrying B
/// across the boundary is only sound for a caller whose plans read nothing
/// a finishing step changes but `done` (`SessionScheduler::PlansOnDoneOnly`)
/// and whose sessions share no state a step writes (no reuse cache or
/// sketch); every other caller settles each round with `FlushWave`.
///
/// This is the machinery `SearchEngine::RunConcurrent` always ran; it is
/// factored out so the serving layer's tenant loop (`serve::TenantServer`)
/// drives sessions through the *same* shipped semantics — including the
/// sticky-transport-failure handling — instead of reimplementing them.
///
/// Error contract: a permanently failed detect transport cancelled every
/// pending ticket, so the wave's sessions can never finish their steps.
/// `Grant`/`EndRound`/`FlushWave` return false the moment that is
/// detected; `status()` then holds the non-OK transport status and the
/// caller must abort the half-begun steps (`AbortPending`) and surface the
/// status instead of truncated traces.
class SessionWaveDriver {
 public:
  /// Called after a wave session's `FinishStep`, with the caller-side index
  /// the step was granted under (the driver never interprets it).
  using FinishFn = std::function<void(size_t index)>;

  /// `service` may be null (no coalescing). `on_finish` must call
  /// `FinishStep()` on the session granted under `index` (and may observe it
  /// afterwards); the driver sequences the calls in submission order.
  /// `pipeline` allows split rounds whose second half-wave stays on the wire
  /// past `EndRound` (see the class comment for when that is sound).
  SessionWaveDriver(query::DetectorService* service, FinishFn on_finish,
                    bool pipeline = false)
      : service_(service), on_finish_(std::move(on_finish)), pipeline_(pipeline) {}

  /// \brief Opens a round of `grants` planned grants and decides whether to
  /// split it into two half-waves (pipelined drivers only).
  void BeginRound(size_t grants) {
    grants_seen_ = 0;
    split_at_ = 0;
    if (!pipeline_ || service_ == nullptr || grants < 2) return;
    if (!service_->options().transport->Asynchronous()) return;
    if (last_timing_.decode_seconds > last_timing_.wire_seconds) {
      split_at_ = (grants + 1) / 2;
    }
  }

  /// \brief Grants one step to `session` under `index`. Finishes the
  /// session's pending step first (with every half-wave shipped before
  /// it), ships the round's first half-wave once the split point is
  /// reached, polls the service between grants (latency-aware flushing),
  /// and returns false on transport failure (see `status()`). A session
  /// that is already done is skipped silently.
  bool Grant(size_t index, QuerySession* session) {
    if (!status_.ok()) return false;
    if (!session->Done()) {  // Else finished earlier this round: skip it.
      if (session->DetectPending() && !FinishThrough(index)) return false;
      if (session->BeginStep()) open_.push_back(index);
    }
    if (++grants_seen_ == split_at_ && !ShipOpen()) return false;
    // Latency-aware flushing (and its failure handling) between grants: a
    // submit may have filled a wire batch, and queued tickets may have aged
    // past the deadline while other sessions were stepping.
    if (service_ != nullptr) service_->Poll();
    return CheckService();
  }

  /// \brief Closes the round: ships its open half-wave, then finishes every
  /// shipped half-wave — except, in a split round, the last one, which
  /// stays on the wire until its sessions are granted again (or
  /// `FlushWave`). Returns false on transport failure.
  bool EndRound() {
    const bool carry = split_at_ != 0;
    split_at_ = 0;
    if (!ShipOpen()) return false;
    const size_t keep = carry && !shipped_.empty() ? 1 : 0;
    if (!FinishOldest(shipped_.size() - keep)) return false;
    if (service_ != nullptr) {
      const query::DetectorService::FlushTiming timing = service_->TakeFlushTiming();
      if (timing.decode_seconds > 0.0 || timing.wire_seconds > 0.0) {
        last_timing_ = timing;
      }
    }
    return true;
  }

  /// \brief Finishes every begun step: ships the open half-wave and
  /// finishes every shipped one, in submission order. Returns false on
  /// transport failure.
  bool FlushWave() {
    if (!status_.ok()) return false;
    if (!ShipOpen()) return false;
    return FinishOldest(shipped_.size());
  }

  /// \brief True while some granted step has not finished.
  bool InFlight() const { return !open_.empty() || !shipped_.empty(); }

  /// \brief Sticky transport status: OK until the shared service's transport
  /// fails permanently, then the failure the caller must surface.
  const common::Status& status() const { return status_; }

  /// \brief The failure path's cleanup: receives whatever is still on the
  /// wire and drops what the service queues, then releases every
  /// half-begun step of `sessions` (decode tasks hold spans into the
  /// abandoned batches). The wire goes first: a runner still executing a
  /// batch uses its sessions' detectors, which must stay registered until it
  /// is done. Every session is aborted — not just those mid-step — so all of
  /// them withdraw their wire registrations and no abandoned session id can
  /// ever resolve to a dangling detector. Call before surfacing `status()`.
  void AbortPending(const std::vector<std::unique_ptr<QuerySession>>& sessions) {
    if (service_ != nullptr) service_->CancelPending();
    for (const auto& session : sessions) {
      if (session != nullptr) session->AbortStep();
    }
    open_.clear();
    shipped_.clear();
  }

 private:
  /// A half-wave (or a whole wave, when the round is not split): the
  /// sessions whose steps it holds, in grant order, and its flush.
  struct HalfWave {
    std::vector<size_t> indices;
    query::DetectorService::FlushId flush = 0;
  };

  /// Ships the open half-wave as its own flush (drain, then send).
  bool ShipOpen() {
    if (open_.empty()) return true;
    HalfWave half;
    half.indices.swap(open_);
    if (service_ != nullptr) half.flush = service_->Ship();
    shipped_.push_back(std::move(half));
    return CheckService();
  }

  /// Collects and finishes the `count` oldest shipped half-waves.
  bool FinishOldest(size_t count) {
    for (; count > 0; --count) {
      HalfWave half = std::move(shipped_.front());
      shipped_.pop_front();
      if (service_ != nullptr) service_->Collect(half.flush);
      if (!CheckService()) return false;
      for (const size_t index : half.indices) on_finish_(index);
    }
    return true;
  }

  /// Finishes the pending step granted under `index`: the shipped half-wave
  /// holding it and every one shipped before it, or — when it is still in
  /// the open half-wave — everything.
  bool FinishThrough(size_t index) {
    for (size_t h = 0; h < shipped_.size(); ++h) {
      const std::vector<size_t>& indices = shipped_[h].indices;
      if (std::find(indices.begin(), indices.end(), index) != indices.end()) {
        return FinishOldest(h + 1);
      }
    }
    return FlushWave();
  }

  bool CheckService() {
    if (service_ == nullptr || service_->transport_status().ok()) return true;
    status_ = service_->transport_status();
    return false;
  }

  query::DetectorService* service_;
  FinishFn on_finish_;
  bool pipeline_;
  std::vector<size_t> open_;     // Begun, not shipped.
  std::deque<HalfWave> shipped_;  // Ship order; at most two.
  size_t grants_seen_ = 0;
  size_t split_at_ = 0;  // Grant count that ships the first half; 0 = no split.
  query::DetectorService::FlushTiming last_timing_;
  common::Status status_;
};

}  // namespace engine
}  // namespace exsample

#endif  // EXSAMPLE_ENGINE_WAVE_DRIVER_H_
