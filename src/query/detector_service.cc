#include "query/detector_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace exsample {
namespace query {

ServiceStatsBinding ServiceStatsBinding::Bind(stats::CounterRegistry* registry,
                                              stats::CounterSlab* slab,
                                              stats::StageTimer* timer) {
  ServiceStatsBinding binding;
  binding.slab = slab;
  binding.timer = timer;
  binding.submits = registry->RegisterCounter("service.submits");
  binding.frames = registry->RegisterCounter("service.frames");
  binding.device_batches = registry->RegisterCounter("service.device_batches");
  binding.shared_batches = registry->RegisterCounter("service.shared_batches");
  binding.flushes = registry->RegisterCounter("service.flushes");
  binding.wire_batches = registry->RegisterCounter("service.wire_batches");
  binding.queue_depth = registry->RegisterGauge("service.queue_depth");
  return binding;
}

DetectorService::DetectorService(DetectorServiceOptions options, size_t num_shards)
    : options_(options) {
  common::Check(options_.device_batch >= 1, "device batch must hold a frame");
  common::Check(num_shards >= 1, "detector service needs at least one shard queue");
  common::Check(options_.transport != nullptr,
                "detector service needs a transport (LocalTransport in process)");
  queues_.resize(num_shards);
  runners_.assign(num_shards, RunnerHealth{});
  options_.transport->BindLocalResolver(&directory_);
}

DetectorService::Ticket DetectorService::Submit(const DetectRequest& request) {
  common::Check(!request.frames.empty(), "empty detect request");
  common::Check(request.shards.empty() || request.shards.size() == request.frames.size(),
                "per-frame shard owners must cover the whole request");
  common::Check(request.dispatcher != nullptr || request.detector != nullptr,
                "detect request needs a detector or a dispatcher");

  // First submit of a session: deploy its detector state to the runners
  // before any wire batch can reference it. Two halves — publish the
  // in-process detector pointers in the local directory (what the bound
  // resolver serves local/loopback runners), and ship the session's
  // `RegisterSessionMsg` through the transport's control plane (what a
  // remote runner materializes an equivalent detector from).
  if (registered_sessions_.insert(request.session_id).second) {
    if (request.dispatcher != nullptr) {
      for (uint32_t s = 0; s < request.dispatcher->NumShards(); ++s) {
        detect::ObjectDetector* detector = request.dispatcher->Context(s).detector;
        if (detector != nullptr) directory_.Register(request.session_id, s, detector);
      }
    } else {
      // A dispatcher-less session serves every one of its frames with the
      // one detector, whatever shard owns them — register it under every
      // shard id a wire slot could name.
      for (uint32_t s = 0; s < queues_.size(); ++s) {
        directory_.Register(request.session_id, s, request.detector);
      }
    }
    RegisterSessionMsg reg;
    reg.session_id = request.session_id;
    reg.repo_fingerprint = options_.repo_fingerprint;
    reg.detector_options = request.detector_options;
    const common::Status deployed = options_.transport->RegisterSession(reg);
    if (!deployed.ok() && transport_status_.ok()) {
      // A rejected registration (repository mismatch, unrecoverable control
      // failure) poisons the fleet the same way a failed flush does: sticky,
      // so the driver surfaces it instead of queueing work that can never
      // execute.
      transport_status_ = deployed;
      CancelPending();
    }
  }

  const Ticket ticket = next_ticket_++;
  PendingRequest& pr = pending_[ticket];
  pr.ticket = ticket;
  pr.request = request;
  pr.results.resize(request.frames.size());
  pr.remaining = request.frames.size();
  pr.submit_seconds = WireClockSeconds();

  std::vector<uint32_t> touched;  // Distinct shards this request routed to.
  for (size_t i = 0; i < request.frames.size(); ++i) {
    const uint32_t shard = request.shards.empty() ? 0 : request.shards[i];
    common::Check(shard < queues_.size(), "frame routed past the shard queues");
    queues_[shard].push_back(QueueEntry{ticket, i});
    if (std::find(touched.begin(), touched.end(), shard) == touched.end()) {
      touched.push_back(shard);
    }
  }
  pending_frames_ += request.frames.size();
  stats_.requests += 1;
  stats::SlabAdd(stats_binding_.slab, stats_binding_.submits);
  stats::SlabSetGauge(stats_binding_.slab, stats_binding_.queue_depth,
                      static_cast<double>(pending_frames_));
  if (request.session_stats != nullptr) {
    request.session_stats->frames_submitted += request.frames.size();
  }

  // Latency-aware fill trigger: a shard whose queue now holds a full wire
  // batch ships it immediately — the batch cannot get any fuller, so
  // waiting for the round barrier would only add latency. Partial tails
  // keep waiting (for the deadline or the barrier). Only shards this
  // request routed frames to can have newly filled.
  if (options_.flush_policy == FlushPolicy::kLatencyAware) {
    std::vector<uint32_t> full;
    for (const uint32_t s : touched) {
      if (queues_[s].size() >= options_.device_batch) full.push_back(s);
    }
    if (!full.empty()) {
      std::sort(full.begin(), full.end());  // Deterministic flush order.
      Collect(ShipShards(full, /*only_full_slices=*/true, FlushReason::kFill));
    }
  }
  return ticket;
}

void DetectorService::Poll() {
  if (options_.flush_policy != FlushPolicy::kLatencyAware) return;
  if (options_.flush_deadline_seconds <= 0.0) return;
  if (!transport_status_.ok()) return;
  const double now = WireClockSeconds();
  std::vector<uint32_t> due;
  for (uint32_t s = 0; s < queues_.size(); ++s) {
    if (queues_[s].empty()) continue;
    const PendingRequest& oldest = pending_.at(queues_[s].front().ticket);
    if (now - oldest.submit_seconds >= options_.flush_deadline_seconds) {
      due.push_back(s);
    }
  }
  if (!due.empty()) {
    Collect(ShipShards(due, /*only_full_slices=*/false, FlushReason::kDeadline));
  }
}

void DetectorService::Flush() {
  Ship();
  // Collect every outstanding flush — a pipelined driver's earlier shipments
  // included — so every submitted request is ready afterwards.
  while (!shipped_.empty()) ReceiveOne();
}

DetectorService::FlushId DetectorService::Ship() {
  std::vector<uint32_t> active;
  for (uint32_t s = 0; s < queues_.size(); ++s) {
    if (!queues_[s].empty()) active.push_back(s);
  }
  if (active.empty()) return 0;
  stats_.flushes += 1;
  stats::SlabAdd(stats_binding_.slab, stats_binding_.flushes);
  return ShipShards(active, /*only_full_slices=*/false, FlushReason::kBarrier);
}

void DetectorService::Collect(FlushId flush) {
  while (shipped_.count(flush) != 0) ReceiveOne();
}

DetectorService::FlushTiming DetectorService::TakeFlushTiming() {
  const FlushTiming timing = timing_;
  timing_ = FlushTiming();
  return timing;
}

DetectorService::FlushId DetectorService::ShipShards(
    const std::vector<uint32_t>& shards, bool only_full_slices,
    FlushReason reason) {
  if (!transport_status_.ok()) return 0;  // Sticky-failed: nothing can execute.

  // Extract the work: the whole queue per shard, or only whole device-batch
  // slices for the fill trigger. Each frame's pending request is resolved
  // here, once, on the coordinator.
  std::vector<ShardWork> work;
  for (const uint32_t s : shards) {
    std::vector<QueueEntry>& queue = queues_[s];
    size_t count = queue.size();
    if (only_full_slices) {
      count = (count / options_.device_batch) * options_.device_batch;
    }
    if (count == 0) continue;
    std::vector<WorkItem> entries;
    entries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      entries.push_back(
          WorkItem{queue[i].ticket, queue[i].frame_index, &pending_.at(queue[i].ticket)});
    }
    queue.erase(queue.begin(), queue.begin() + static_cast<ptrdiff_t>(count));
    pending_frames_ -= count;
    work.emplace_back(s, std::move(entries));
  }
  if (work.empty()) return 0;
  if (reason == FlushReason::kFill) stats_.fill_flushes += 1;
  if (reason == FlushReason::kDeadline) stats_.deadline_flushes += 1;
  stats::SlabSetGauge(stats_binding_.slab, stats_binding_.queue_depth,
                      static_cast<double>(pending_frames_));

  // Decode barrier: drain the prefetcher of every request about to be
  // detected, in ticket order, before any of this flush is sent (the charges
  // were already planned, in batch order, at submit time — the drain only
  // waits for the decode *work*, and the coordinator helps with it).
  std::vector<Ticket> involved;
  for (const ShardWork& shard_work : work) {
    for (const WorkItem& entry : shard_work.second) {
      involved.push_back(entry.ticket);
    }
  }
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()), involved.end());
  const double drain_start = WireClockSeconds();
  for (const Ticket ticket : involved) {
    const PendingRequest& pr = pending_.at(ticket);
    if (pr.request.prefetcher != nullptr) pr.request.prefetcher->Drain();
  }
  timing_.decode_seconds += WireClockSeconds() - drain_start;

  // Ship every slice without waiting — the runners work concurrently, and
  // the caller may work while they do; completions are collected in
  // whatever order they arrive (`ReceiveOne`), and results land in fixed
  // ticket slots, so arrival order is irrelevant to the trace.
  const FlushId id = next_flush_++;
  ShippedFlush& flush = shipped_[id];
  for (const ShardWork& shard_work : work) {
    const uint32_t shard = shard_work.first;
    const std::vector<WorkItem>& entries = shard_work.second;
    for (size_t begin = 0; begin < entries.size(); begin += options_.device_batch) {
      const size_t count = std::min(options_.device_batch, entries.size() - begin);
      InFlightSlice slice;
      slice.flush = id;
      slice.origin_shard = shard;
      slice.entries.assign(entries.begin() + static_cast<ptrdiff_t>(begin),
                           entries.begin() + static_cast<ptrdiff_t>(begin + count));
      if (!RouteShard(shard, &slice.runner)) {
        FailTransport(common::Status::Internal(
            "detect transport failed permanently: every shard runner is down"));
        return 0;
      }
      slice.probe = runners_[slice.runner].down;  // Only probes reach one.
      const uint64_t seq = next_wire_seq_++;
      slice.send_seconds = WireClockSeconds();
      common::CheckOk(options_.transport->Send(slice.runner, BuildRequest(slice, seq)),
                      "wire send failed");
      stats_.wire_batches += 1;
      stats::SlabAdd(stats_binding_.slab, stats_binding_.wire_batches);
      // Proactive reroute off a runner already known to be down: still a
      // first send, counted apart from failure-driven requeue resends.
      if (slice.runner != slice.origin_shard) stats_.wire_reroutes += 1;
      inflight_.emplace(seq, std::move(slice));
      flush.outstanding += 1;
    }
  }
  flush.work = std::move(work);
  flush.involved = std::move(involved);
  flush.shipped_seconds = WireClockSeconds();
  return id;
}

DetectRequestMsg DetectorService::BuildRequest(const InFlightSlice& slice,
                                               uint64_t wire_seq) const {
  DetectRequestMsg msg;
  msg.wire_seq = wire_seq;
  msg.origin_shard = slice.origin_shard;
  msg.attempt = slice.attempt;
  msg.repo_fingerprint = options_.repo_fingerprint;
  msg.slots.reserve(slice.entries.size());
  for (const WorkItem& entry : slice.entries) {
    const PendingRequest& pr = *entry.request;
    msg.slots.push_back(
        WireSlot{pr.request.session_id, pr.request.frames[entry.frame_index]});
  }
  return msg;
}

void DetectorService::ReceiveOne() {
  ShardTransport* transport = options_.transport;
  auto received = transport->Receive();
  common::CheckOk(received.status(), "wire receive failed");
  WireCompletion completion = std::move(received).value();
  DetectResponseMsg& response = completion.response;
  const auto it = inflight_.find(response.wire_seq);
  common::Check(it != inflight_.end(), "wire response for an unknown batch");
  InFlightSlice& slice = it->second;

  if (response.status == WireStatus::kOk) {
    common::Check(response.detections.size() == slice.entries.size(),
                  "wire response slot count mismatch");
    // One transport round-trip, (re)send to the response's arrival — not to
    // this call, which a pipelined coordinator may make much later. Retried
    // batches time from their last send: the round trip the wire actually
    // served, not the cumulative wait.
    stats::TimerRecord(stats_binding_.timer, stats::Stage::kTransport,
                       completion.arrived_seconds - slice.send_seconds);
    for (size_t i = 0; i < slice.entries.size(); ++i) {
      slice.entries[i].request->results[slice.entries[i].frame_index] =
          std::move(response.detections[i]);
    }
    stats_.wire_charged_seconds += response.charged_seconds;
    RunnerHealth& health = runners_[slice.runner];
    health.failed_batches = 0;
    if (health.down) {
      // The probe came back served: the runner rejoins the fleet.
      health = RunnerHealth{};
      stats_.shards_readmitted += 1;
    }
    const FlushId id = slice.flush;
    inflight_.erase(it);
    ShippedFlush& flush = shipped_.at(id);
    flush.last_arrival_seconds =
        std::max(flush.last_arrival_seconds, completion.arrived_seconds);
    if (--flush.outstanding == 0) CompleteFlush(id);
    return;
  }

  // A repository mismatch is a deployment error, not an availability one:
  // every runner of the mis-deployed fleet would reject the same batch, so
  // requeuing it around — marking healthy runners down on the way — would
  // only bury the real diagnosis under "every runner failed". Fail fast,
  // by name.
  if (response.status == WireStatus::kRepoMismatch) {
    inflight_.erase(it);
    FailTransport(common::Status::FailedPrecondition(
        "shard runner rejected the batch: repository fingerprint mismatch "
        "(coordinator and runners serve different repositories)"));
    return;
  }

  // Unavailability (the only failure reaching here): retried in place, then
  // requeued onto another live runner. `origin_shard` never changes, so the
  // serving runner resolves the *same* session/shard detector contexts —
  // detections, and the session's per-shard charged seconds, are identical
  // to the no-failure run.
  RunnerHealth& health = runners_[slice.runner];
  if (slice.probe) health.probing = false;
  if (!health.down && slice.runner_attempts < options_.max_retries) {
    slice.attempt += 1;
    slice.runner_attempts += 1;
    stats_.wire_retries += 1;
    slice.send_seconds = WireClockSeconds();
    common::CheckOk(transport->Send(slice.runner, BuildRequest(slice, response.wire_seq)),
                    "wire send failed");
    return;
  }
  if (health.down) {
    // Down runners get no retries. A failed probe backs off further, and one
    // that failed with the backoff already at its cap gives the runner up; a
    // batch sent before the runner went down just moves on.
    if (slice.probe) {
      health.given_up = health.backoff >= kProbeBackoffCapSeconds;
      health.backoff = std::min(2.0 * health.backoff, kProbeBackoffCapSeconds);
      health.probe_at = WireClockSeconds() + health.backoff;
    }
  } else if (++health.failed_batches >= kDownAfterFailedBatches) {
    health.down = true;
    health.probe_at = WireClockSeconds() + health.backoff;
    stats_.shards_down += 1;
  }
  uint32_t next = 0;
  if (!NextLiveRunner(slice.runner, &next) && !AwaitProbe(&next)) {
    inflight_.erase(it);
    FailTransport(common::Status::Internal(
        "detect transport failed permanently: every shard runner is down"));
    return;
  }
  slice.runner = next;
  slice.probe = runners_[next].down;  // Only probes reach one.
  slice.attempt += 1;
  slice.runner_attempts = 0;  // Fresh retry budget on the new runner.
  stats_.wire_requeues += 1;
  slice.send_seconds = WireClockSeconds();
  common::CheckOk(transport->Send(slice.runner, BuildRequest(slice, response.wire_seq)),
                  "wire send failed");
}

void DetectorService::CompleteFlush(FlushId id) {
  const auto node = shipped_.find(id);
  common::Check(node != shipped_.end(), "completing an unknown flush");
  const ShippedFlush& flush = node->second;
  timing_.wire_seconds = std::max(timing_.wire_seconds,
                                  flush.last_arrival_seconds - flush.shipped_seconds);

  // Bookkeeping, on the coordinator after every slice completed. Slice
  // boundaries are a pure function of the extracted queues, so the tallies
  // are deterministic whatever the execution order was.
  for (const ShardWork& shard_work : flush.work) BookSlices(shard_work.second);

  // Completion: a request is done when its last frame — on any shard, in
  // any flush — has been detected; partial flushes leave it pending until
  // then.
  for (const ShardWork& shard_work : flush.work) {
    for (const WorkItem& entry : shard_work.second) {
      common::Check(entry.request->remaining > 0, "detect slot completed twice");
      entry.request->remaining -= 1;
    }
  }
  const double now = WireClockSeconds();
  for (const Ticket ticket : flush.involved) {
    const auto it = pending_.find(ticket);
    if (it == pending_.end() || it->second.remaining > 0) continue;
    if (ticket_latencies_.size() >= kTicketLatencyCap) {
      // Keep the most recent window (halving amortizes the shift to O(1)).
      ticket_latencies_.erase(
          ticket_latencies_.begin(),
          ticket_latencies_.begin() + static_cast<ptrdiff_t>(kTicketLatencyCap / 2));
    }
    ticket_latencies_.push_back(now - it->second.submit_seconds);
    stats::TimerRecord(stats_binding_.timer, stats::Stage::kSubmitToGrant,
                       now - it->second.submit_seconds);
    ready_.emplace(ticket, std::move(it->second.results));
    pending_.erase(it);
  }
  shipped_.erase(node);
}

void DetectorService::UnregisterSession(uint64_t session_id) {
  if (registered_sessions_.erase(session_id) > 0) {
    directory_.Unregister(session_id);
    options_.transport->UnregisterSession(session_id);
  }
}

void DetectorService::BookSlices(const std::vector<WorkItem>& entries) {
  std::vector<const PendingRequest*> in_slice;
  for (size_t begin = 0; begin < entries.size(); begin += options_.device_batch) {
    const size_t count = std::min(options_.device_batch, entries.size() - begin);
    in_slice.clear();
    for (size_t j = 0; j < count; ++j) {
      const PendingRequest* pr = entries[begin + j].request;
      if (std::find(in_slice.begin(), in_slice.end(), pr) == in_slice.end()) {
        in_slice.push_back(pr);
      }
    }
    bool shared = false;
    for (const PendingRequest* pr : in_slice) {
      if (pr->request.session_id != in_slice.front()->request.session_id) {
        shared = true;
        break;
      }
    }
    stats_.device_batches += 1;
    stats_.frames += count;
    if (shared) stats_.shared_batches += 1;
    stats::SlabAdd(stats_binding_.slab, stats_binding_.device_batches);
    stats::SlabAdd(stats_binding_.slab, stats_binding_.frames, count);
    if (shared) {
      stats::SlabAdd(stats_binding_.slab, stats_binding_.shared_batches);
    }
    for (const PendingRequest* pr : in_slice) {
      SessionSchedulerStats* session = pr->request.session_stats;
      if (session == nullptr) continue;
      session->device_batches += 1;
      if (shared) {
        session->batches_shared += 1;
        for (size_t j = 0; j < count; ++j) {
          if (entries[begin + j].request == pr) session->frames_coalesced += 1;
        }
      }
    }
  }
}

bool DetectorService::RouteShard(uint32_t origin, uint32_t* runner) {
  RunnerHealth& health = runners_[origin];
  if (health.down && !health.probing && WireClockSeconds() >= health.probe_at) {
    health.probing = true;  // This batch is the probe.
    *runner = origin;
    return true;
  }
  if (!health.down) {
    *runner = origin;
    return true;
  }
  return NextLiveRunner(origin, runner) || AwaitProbe(runner);
}

bool DetectorService::NextLiveRunner(uint32_t from, uint32_t* runner) const {
  for (uint32_t d = 1; d <= runners_.size(); ++d) {
    const uint32_t s = (from + d) % static_cast<uint32_t>(runners_.size());
    if (!runners_[s].down) {
      *runner = s;
      return true;
    }
  }
  return false;
}

bool DetectorService::AwaitProbe(uint32_t* runner) {
  bool found = false;
  for (uint32_t s = 0; s < runners_.size(); ++s) {
    if (runners_[s].given_up) continue;
    if (!found || runners_[s].probe_at < runners_[*runner].probe_at) {
      *runner = s;
      found = true;
    }
  }
  if (!found) return false;
  RunnerHealth& health = runners_[*runner];
  const double wait = health.probe_at - WireClockSeconds();
  if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  health.probing = true;
  return true;
}

void DetectorService::FailTransport(common::Status status) {
  if (transport_status_.ok()) transport_status_ = std::move(status);
  CancelPending();
}

void DetectorService::CancelPending() {
  // Slices still on the wire reference the requests dropped below, and their
  // runners may be running the sessions' detectors right now: receive (and
  // discard) every outstanding response first, so the transport ends empty
  // and nothing executes for an abandoned workload once this returns.
  while (!inflight_.empty()) {
    auto received = options_.transport->Receive();
    common::CheckOk(received.status(), "wire receive failed");
    inflight_.erase(received.value().response.wire_seq);
  }
  shipped_.clear();
  pending_.clear();
  for (auto& queue : queues_) queue.clear();
  pending_frames_ = 0;
  ready_.clear();
}

bool DetectorService::Ready(Ticket ticket) const {
  return ready_.find(ticket) != ready_.end();
}

std::vector<detect::Detections> DetectorService::Take(Ticket ticket) {
  const auto it = ready_.find(ticket);
  common::Check(it != ready_.end(), "taking a detect result that is not ready");
  std::vector<detect::Detections> results = std::move(it->second);
  ready_.erase(it);
  return results;
}

double DetectorService::FillRate() const {
  if (stats_.device_batches == 0) return 0.0;
  // The constructor validates device_batch >= 1, but a ratio accessor must
  // not be able to divide by zero whatever state it is called in — guard the
  // denominator rather than trust a distant invariant.
  const double denominator =
      static_cast<double>(stats_.device_batches) *
      static_cast<double>(std::max<size_t>(size_t{1}, options_.device_batch));
  return static_cast<double>(stats_.frames) / denominator;
}

}  // namespace query
}  // namespace exsample
