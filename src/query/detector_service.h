#ifndef EXSAMPLE_QUERY_DETECTOR_SERVICE_H_
#define EXSAMPLE_QUERY_DETECTOR_SERVICE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "detect/detector.h"
#include "query/prefetch.h"
#include "query/scheduler.h"
#include "query/shard_dispatch.h"
#include "query/transport.h"
#include "query/wire.h"
#include "stats/counter_registry.h"
#include "stats/stage_timer.h"
#include "video/repository.h"

namespace exsample {
namespace query {

/// \brief The detect service's binding to the engine-wide observability
/// registry: a single-writer counter slab, a stage timer for the
/// submit→grant and transport-round-trip histograms, and the
/// pre-registered metric ids. All-null (the default) collects nothing.
/// Written only from the coordinator thread driving the service, per the
/// registry's single-writer contract.
struct ServiceStatsBinding {
  stats::CounterSlab* slab = nullptr;
  stats::StageTimer* timer = nullptr;
  stats::MetricId submits = 0;
  stats::MetricId frames = 0;
  stats::MetricId device_batches = 0;
  stats::MetricId shared_batches = 0;
  stats::MetricId flushes = 0;
  stats::MetricId wire_batches = 0;
  stats::MetricId queue_depth = 0;  // Gauge: frames queued, not yet flushed.

  /// Registers the service metric names and returns a binding over
  /// `slab`/`timer` (either may be null to collect only the other half).
  static ServiceStatsBinding Bind(stats::CounterRegistry* registry,
                                  stats::CounterSlab* slab,
                                  stats::StageTimer* timer);
};

/// \brief When a shard's submission queue is executed.
enum class FlushPolicy {
  /// Only at the driver's round barrier (`Flush`) — every session of the
  /// round submits before anything runs. Maximizes device-batch fill; a
  /// ticket's latency is bounded by the whole round. The default, and
  /// bit-compatible with the pre-policy service.
  kRoundBarrier,
  /// Latency-aware: additionally flush a shard's queue the moment a full
  /// wire batch accumulates (`Submit`), and flush whatever a shard has
  /// queued once its oldest ticket has waited `flush_deadline_seconds`
  /// (checked by `Poll`). Trades fill for bounded ticket latency — the
  /// policy a distributed deployment wants, since a remote shard's device
  /// batch should leave as soon as it is full or stale, not when the
  /// coordinator's round happens to end. Never changes a trace: flush
  /// timing re-packs device batches but detection stays per-frame
  /// deterministic in fixed ticket slots.
  kLatencyAware,
};

/// \brief Coalescing configuration of a `DetectorService`.
struct DetectorServiceOptions {
  /// Target frames per coalesced device batch: a flush slices each shard's
  /// merged queue into wire batches of at most this many frames. The
  /// fill-rate statistic is measured against it ("how full were the device
  /// batches we paid for"). Must be >= 1.
  size_t device_batch = 32;
  /// When a shard's queue is executed (see `FlushPolicy`).
  FlushPolicy flush_policy = FlushPolicy::kRoundBarrier;
  /// Age bound of `FlushPolicy::kLatencyAware`'s deadline trigger, in
  /// wall-clock seconds; 0 leaves only the batch-fill trigger.
  double flush_deadline_seconds = 0.0;
  /// Executes the sliced device batches: every slice crosses this transport
  /// as a wire batch and its response is scattered back by ticket.
  /// Required — `LocalTransport` is the in-process runner. The transport
  /// must outlive the service; the service binds its session directory to it
  /// on construction.
  ShardTransport* transport = nullptr;
  /// Transient-failure budget per wire batch: a failed batch is retried this
  /// many times on its runner, then requeued onto another live runner
  /// (`origin_shard` unchanged, so detections and per-shard accounting are
  /// identical), or onto the same one when no other is up. A runner is
  /// marked down only when `kDownAfterFailedBatches` batches in a row
  /// exhausted their budget on it with no success between; a down runner is
  /// probed with its own shard's next batch after a capped backoff and
  /// re-admitted when the probe succeeds. When every runner is down, the
  /// batch waits for the probe due soonest and is sent as it; the service
  /// fails sticky — `transport_status()` — only once every runner has failed
  /// a probe at the backoff cap.
  size_t max_retries = 2;
  /// Fingerprint stamped into every wire request
  /// (`video::VideoRepository::Fingerprint`); 0 disables the runner-side
  /// repository check.
  uint64_t repo_fingerprint = 0;
};

/// \brief Aggregate tallies of a service's coalescing work.
struct DetectorServiceStats {
  /// Session submissions accepted (one per `QueryExecution` step).
  uint64_t requests = 0;
  /// Frames detected through the service.
  uint64_t frames = 0;
  /// Coalesced device batches executed (queue slices, per shard).
  uint64_t device_batches = 0;
  /// Of those, batches holding frames of at least two sessions.
  uint64_t shared_batches = 0;
  /// Barrier flushes (`Flush` or `Ship`) that found work.
  uint64_t flushes = 0;
  /// Latency-aware partial flushes: triggered by a full wire batch at
  /// `Submit`, and by the deadline check in `Poll`.
  uint64_t fill_flushes = 0;
  uint64_t deadline_flushes = 0;
  /// Wire batches sent through the transport (first sends; retries and
  /// requeues are counted separately).
  uint64_t wire_batches = 0;
  /// Failed wire batches re-sent to the same runner.
  uint64_t wire_retries = 0;
  /// Failure-driven requeues: batches re-sent to a surviving shard after
  /// their runner exhausted its retries. Extra sends on top of
  /// `wire_batches` (`requests = wire_batches + wire_retries +
  /// wire_requeues` on the transport).
  uint64_t wire_requeues = 0;
  /// Proactive reroutes: *first* sends addressed straight to a survivor
  /// because the origin's runner was already marked down. Counted inside
  /// `wire_batches`, not extra traffic.
  uint64_t wire_reroutes = 0;
  /// Times a shard runner was marked down.
  uint64_t shards_down = 0;
  /// Times a down runner passed its probe and was re-admitted.
  uint64_t shards_readmitted = 0;
  /// Detector seconds the shard runners reported charging (transport only;
  /// the sessions' own accounting is authoritative — this is the remote
  /// half, for observability).
  double wire_charged_seconds = 0.0;
};

/// \brief Shared detect stage: coalesces pending frames from many query
/// sessions into full device batches.
///
/// ExSample's premise is that the detector is the scarce resource; under a
/// concurrent workload, per-session batching under-fills it — a session
/// stepping with batch 8 occupies a 64-frame device batch alone. The service
/// is the cross-session remedy: each session *submits* its picked batch
/// (`Submit`, non-blocking) and yields; once the scheduler has stepped the
/// other sessions of the round, `Flush` merges everything pending into
/// per-shard queues and executes them as device batches of up to
/// `device_batch` frames, routing each frame through *its own session's*
/// detector context (per-query noise streams stay per-query) and scattering
/// results back per request. Results are then collected per session
/// (`Take`), which discriminates and feeds back exactly as before.
///
/// Determinism contract: coalescing never changes a trace. Requests carry
/// monotonically increasing sequence numbers (tickets); a shard queue holds
/// frames in (ticket, batch-position) order, results land in fixed
/// per-request slots, detection is per-frame deterministic per session, and
/// every order-sensitive stage (decode planning, discrimination, belief
/// updates) already ran or runs on the coordinator in session batch order —
/// so the service at any coalesce width, under any flush policy, and over
/// any transport is bit-identical to per-session batching (width 1), which
/// the `sched` and `dist` suites enforce fatally.
///
/// The decode-ahead seam moves with the detect stage: a request's prefetcher
/// keeps decoding on the I/O pools from submit time until the flush that
/// consumes the request — the decode window spans the coalesce window.
/// Every flush drains the prefetchers of the requests *it* executes, in
/// ticket order, before any of its slices is sent. A pipelined driver ships
/// each half-wave as its own flush, so the rule holds per half-wave: a
/// half-wave is fully decoded before it goes on the wire, while the other
/// half-wave may still be decoding or on the wire itself.
///
/// **Ship and collect.** `Flush` is `Ship` (drain, then send every slice
/// without waiting) followed by collecting every outstanding flush. Drivers
/// that have work to do while a flush is on the wire call the halves
/// themselves: `Ship` returns a `FlushId`, `Collect` blocks until that flush
/// completed. Two flushes' slices — and their retries and requeues — can be
/// outstanding at once; responses are matched to slices by wire sequence
/// number whichever flush they belong to, and a flush's requests become
/// ready (`Take`) when its last slice lands.
///
/// **Transport boundary.** The per-shard queues are the distribution seam:
/// every sliced device batch crosses the `ShardTransport` in
/// `options.transport` as a wire request (serialized on every transport but
/// `LocalTransport`) and its response is scattered back by wire sequence
/// number — completions may arrive in any order, because results land in
/// fixed ticket slots either way. Failed batches are retried `max_retries`
/// times, then requeued onto another live runner with `origin_shard`
/// (and therefore the serving detector contexts and the charged seconds)
/// unchanged, or onto a down runner's probe when none is live; when every
/// runner has failed its probes up to the backoff cap the service goes
/// sticky-failed (`transport_status()`) and `CancelPending` releases
/// whatever could not complete, so the driver can surface the error instead
/// of hanging.
///
/// One coordinator thread drives the service (Submit/Poll/Ship/Collect/
/// Flush/Take); only the transport's shard runners and their per-frame
/// detect fan-out run elsewhere.
class DetectorService {
 public:
  using Ticket = uint64_t;
  /// Handle of one shipped flush (`Ship`); 0 names no flush.
  using FlushId = uint64_t;

  /// Batches in a row that must exhaust their retries on one runner, with no
  /// success from it between, before it is marked down.
  static constexpr uint32_t kDownAfterFailedBatches = 2;
  /// Backoff before a down runner's first probe; doubled after each failed
  /// probe up to the cap. A fleet with no live runner is given up after
  /// about 2.5 s of failed probes (0.05 + 0.1 + ... + 0.8 + 1).
  static constexpr double kProbeBackoffSeconds = 0.05;
  static constexpr double kProbeBackoffCapSeconds = 1.0;

  /// \brief Wall-clock split of the flushes since the last
  /// `TakeFlushTiming`: what a pipelined driver weighs to decide whether
  /// splitting a round into two half-waves pays.
  struct FlushTiming {
    /// Coordinator seconds spent in the prefetcher drains of shipped
    /// flushes — the decode wall the wire could hide behind.
    double decode_seconds = 0.0;
    /// Longest wire round trip of a completed flush: its last slice's
    /// arrival minus the end of its sends.
    double wire_seconds = 0.0;
  };

  /// One session's pending detect work. Spans must stay valid until the
  /// request's results are taken; the pointees must outlive the flush.
  /// Under cross-query reuse (`RunnerOptions::reuse`) the submitting runner
  /// has already filtered its batch: only cache/sketch *misses* arrive here,
  /// so coalesced device batches never spend capacity on frames whose
  /// detections are already known.
  struct DetectRequest {
    /// Stable identity of the submitting session. Used for shared-batch
    /// stats attribution and, over a transport, as the wire id the shard
    /// runners resolve the session's detectors by — it must then be unique
    /// per live session (`SearchEngine` hands every session a fresh one).
    uint64_t session_id = 0;
    /// Frames to detect, in the session's batch order.
    common::Span<const video::FrameId> frames;
    /// Owning shard per frame (parallel to `frames`); empty means every
    /// frame belongs to shard 0 (unsharded execution).
    common::Span<const uint32_t> shards;
    /// The session's detector (unsharded sessions). Ignored when
    /// `dispatcher` is set.
    detect::ObjectDetector* detector = nullptr;
    /// The configuration the session's detectors were built from. Shipped in
    /// the session's `RegisterSessionMsg` on first submit: a remote runner
    /// materializes an equivalent detector from it (`SimulatedDetector` is a
    /// pure function of ground truth + options), where the in-process
    /// transports resolve the pointers above.
    detect::DetectorOptions detector_options;
    /// The session's shard dispatcher. When set, each frame is detected by
    /// `dispatcher->Context(shard).detector`.
    ShardDispatcher* dispatcher = nullptr;
    /// The session's decode prefetcher; drained (in ticket order) before a
    /// flush detects anything of this request. Null when the session does
    /// not decode.
    DecodePrefetcher* prefetcher = nullptr;
    /// The session's scheduler/coalescing tallies; updated at flush time.
    SessionSchedulerStats* session_stats = nullptr;
  };

  /// `num_shards` fixes the submission-queue fan-out (1 for unsharded
  /// engines). `options.transport` must be set: it executes every device
  /// batch, and its runners own the worker pools the batches fan out over.
  explicit DetectorService(DetectorServiceOptions options, size_t num_shards = 1);

  /// \brief Enqueues a session's batch and returns its ticket. Non-blocking
  /// under the barrier policy; the latency-aware policy may execute shard
  /// queues that reached a full wire batch before returning.
  Ticket Submit(const DetectRequest& request);

  /// \brief Latency-aware housekeeping: executes any shard queue whose
  /// oldest ticket has waited past `flush_deadline_seconds`. No-op under
  /// the barrier policy (or with no deadline configured) — drivers can call
  /// it unconditionally between steps.
  void Poll();

  /// \brief Executes everything pending as coalesced per-shard device
  /// batches and makes every submitted request's results available to
  /// `Take`: `Ship`, then collect every outstanding flush. No-op when
  /// nothing is pending or in flight.
  void Flush();

  /// \brief The first half of `Flush`: extracts everything queued, drains
  /// the prefetchers of the requests it holds, and sends every slice
  /// without waiting for a response. Returns the flush's id for `Collect`,
  /// or 0 when nothing was queued (or the transport failed).
  FlushId Ship();

  /// \brief Blocks until flush `flush` completed, handling the responses
  /// of any other outstanding flush as they arrive. Requests whose last
  /// frame was in a completed flush are ready afterwards. No-op for 0 or a
  /// flush that already completed; returns early on permanent transport
  /// failure (check `transport_status()`).
  void Collect(FlushId flush);

  /// \brief Shipped flushes not yet completed.
  size_t FlushesInFlight() const { return shipped_.size(); }

  /// \brief Returns the timing accumulated since the previous call, and
  /// resets it.
  FlushTiming TakeFlushTiming();

  /// \brief True when `ticket` has been flushed and its results are waiting.
  bool Ready(Ticket ticket) const;

  /// \brief Returns (and releases) the detections of a flushed request;
  /// result `i` corresponds to `frames[i]` of the submitted batch. Fatal if
  /// the ticket was never submitted or not yet flushed.
  std::vector<detect::Detections> Take(Ticket ticket);

  /// \brief OK until the transport permanently fails (every shard runner
  /// given up, or an unrecoverable wire error); then the sticky error. Drivers
  /// must check after flushing and abandon the workload on failure — pending
  /// tickets are cancelled, never completed.
  const common::Status& transport_status() const { return transport_status_; }

  /// \brief Abandons the whole workload: drops every queued and in-flight
  /// request (their spans are released; their tickets will never become
  /// ready) **and** every completed-but-untaken result — after a cancel,
  /// `Take` is fatal for any outstanding ticket. Slices still on the wire
  /// are received (and discarded) first, so no runner is executing a
  /// session's detector once this returns. Called internally on permanent
  /// transport failure; drivers call it when abandoning a workload mid-step
  /// so the service holds no stale spans.
  void CancelPending();

  /// \brief Frames currently queued and not yet flushed.
  size_t PendingFrames() const { return pending_frames_; }

  size_t NumShards() const { return queues_.size(); }
  const DetectorServiceOptions& options() const { return options_; }
  const DetectorServiceStats& stats() const { return stats_; }

  /// \brief Wall-clock seconds from `Submit` to completed flush, one entry
  /// per completed ticket in completion order — the latency the flush
  /// policy trades fill against (`bench_dist_transport` gates on its p95).
  /// Bounded on a long-lived service: only the most recent
  /// `kTicketLatencyCap` completions are retained.
  const std::vector<double>& TicketLatencies() const { return ticket_latencies_; }

  /// \brief Retention bound of `TicketLatencies` (far above any single
  /// workload; an engine-lifetime service must not grow without bound).
  static constexpr size_t kTicketLatencyCap = size_t{1} << 16;

  /// \brief Forgets a session's wire registrations — the local directory
  /// entries hold raw detector pointers, which dangle once the session dies,
  /// and the transport's runners are told to drop their deployed state.
  /// Called on every session exit path (`Finish`, `AbortPendingStep`,
  /// `Terminate`) — deliberately never from a destructor, so a session object
  /// that outlives its engine stays destructible. Idempotent; no-op for ids
  /// never registered.
  void UnregisterSession(uint64_t session_id);

  /// \brief Mean fill of the device batches paid for so far:
  /// frames / (device_batches * device_batch). 0 before the first flush.
  double FillRate() const;

  /// \brief Attaches (or detaches, with a default-constructed binding) the
  /// observability sinks. Call from the coordinator thread, between steps.
  void BindStats(const ServiceStatsBinding& binding) { stats_binding_ = binding; }

  /// \brief The runner-side session directory (wire id -> detector context)
  /// the service maintains for its transport. Exposed for tests.
  const SessionDirectory& directory() const { return directory_; }

 private:
  struct PendingRequest {
    Ticket ticket = 0;
    DetectRequest request;
    std::vector<detect::Detections> results;  // Slot per frame, filled at flush.
    size_t remaining = 0;      // Frames not yet detected (any shard).
    double submit_seconds = 0.0;  // Wall clock at Submit, for latency stats.
  };
  /// One queued frame: where it came from (ticket t, batch position i).
  struct QueueEntry {
    Ticket ticket = 0;
    size_t frame_index = 0;
  };
  /// One extracted frame of a flush, its owning request resolved *once* on
  /// the coordinator (`pending_` nodes are pointer-stable for the flush's
  /// duration) — building wire slots and scattering responses must not pay
  /// a map lookup per frame.
  struct WorkItem {
    Ticket ticket = 0;
    size_t frame_index = 0;
    PendingRequest* request = nullptr;
  };
  using ShardWork = std::pair<uint32_t, std::vector<WorkItem>>;
  enum class FlushReason { kBarrier, kFill, kDeadline };

  /// One wire batch on the wire: a slice of one shard's extracted queue.
  struct InFlightSlice {
    FlushId flush = 0;
    uint32_t origin_shard = 0;
    uint32_t runner = 0;
    double send_seconds = 0.0;     // Wall clock at (re)send: round-trip stats.
    uint32_t attempt = 0;          // Cumulative across runners (wire field).
    uint32_t runner_attempts = 0;  // Failures on the *current* runner only:
                                   // the retry budget is per runner, so a
                                   // requeued batch gets a fresh budget on
                                   // its survivor — one transient blip there
                                   // must not cascade to marking it down.
    bool probe = false;            // Sent to a down runner to test it.
    std::vector<WorkItem> entries;
  };
  /// One shipped flush: its extracted work (for bookkeeping once every
  /// slice landed) and the slices still outstanding.
  struct ShippedFlush {
    std::vector<ShardWork> work;
    std::vector<Ticket> involved;  // Distinct tickets, ascending.
    size_t outstanding = 0;
    double shipped_seconds = 0.0;       // Wall clock after the last send.
    double last_arrival_seconds = 0.0;  // Latest slice arrival so far.
  };

  /// Extracts and ships work from the named shard queues: the full queue
  /// per shard, or only whole `device_batch` slices (`only_full_slices`,
  /// the fill trigger — a partial tail keeps waiting). Drains the
  /// prefetchers of the requests it extracted, then sends every slice.
  /// Returns the flush's id (0 when nothing was extracted or the transport
  /// failed).
  FlushId ShipShards(const std::vector<uint32_t>& shards, bool only_full_slices,
                     FlushReason reason);

  /// Receives one completion and handles it: scatters a served slice's
  /// detections (completing its flush with the last one), retries or
  /// requeues a failed one, or fails the transport permanently.
  void ReceiveOne();

  /// Bookkeeping and request completion of a flush whose slices all landed.
  void CompleteFlush(FlushId flush);

  /// Sticky permanent failure: records `status` and cancels everything.
  void FailTransport(common::Status status);

  DetectRequestMsg BuildRequest(const InFlightSlice& slice, uint64_t wire_seq) const;

  /// Deterministic per-slice bookkeeping, after a shard's slices completed.
  void BookSlices(const std::vector<WorkItem>& entries);

  /// Picks the runner for `origin`'s batches: `origin` itself while its
  /// runner is up or due a probe (which this claims), else the next
  /// surviving shard, else `AwaitProbe`. Returns false when every runner is
  /// given up.
  bool RouteShard(uint32_t origin, uint32_t* runner);
  /// The next live runner after `from`, or `from` itself when it is the
  /// only one up; false when none is.
  bool NextLiveRunner(uint32_t from, uint32_t* runner) const;
  /// For a batch with no live runner to go to: sleeps until the probe due
  /// soonest among the runners not given up, and claims it. False when every
  /// runner is given up.
  bool AwaitProbe(uint32_t* runner);

  // Health of one shard runner.
  struct RunnerHealth {
    bool down = false;
    bool probing = false;          // A probe batch is on the wire.
    bool given_up = false;         // A probe failed at the backoff cap.
    uint32_t failed_batches = 0;   // Exhausted batches since its last success.
    double probe_at = 0.0;         // Wall clock of the next probe, when down.
    double backoff = kProbeBackoffSeconds;
  };

  DetectorServiceOptions options_;

  std::map<Ticket, PendingRequest> pending_;     // Ticket order.
  std::vector<std::vector<QueueEntry>> queues_;  // Per shard.
  size_t pending_frames_ = 0;
  Ticket next_ticket_ = 1;
  uint64_t next_wire_seq_ = 1;
  FlushId next_flush_ = 1;
  std::unordered_map<uint64_t, InFlightSlice> inflight_;  // By wire seq.
  std::map<FlushId, ShippedFlush> shipped_;                // Ship order.
  FlushTiming timing_;
  std::unordered_map<Ticket, std::vector<detect::Detections>> ready_;
  std::vector<RunnerHealth> runners_;  // Per shard runner.
  common::Status transport_status_;    // Sticky; OK while the fleet serves.
  SessionDirectory directory_;         // Runner-side id -> detector registry.
  std::unordered_set<uint64_t> registered_sessions_;
  std::vector<double> ticket_latencies_;
  DetectorServiceStats stats_;
  ServiceStatsBinding stats_binding_;
};

}  // namespace query
}  // namespace exsample

#endif  // EXSAMPLE_QUERY_DETECTOR_SERVICE_H_
