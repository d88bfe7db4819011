#include "serve/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "engine/wave_driver.h"
#include "query/detector_service.h"
#include "query/shard_trace.h"

namespace exsample {
namespace serve {

const char* OutcomeKindName(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kCompleted:
      return "completed";
    case OutcomeKind::kRejected:
      return "rejected";
    case OutcomeKind::kShed:
      return "shed";
  }
  return "unknown";
}

TenantServer::TenantServer(engine::SearchEngine* engine, ServeOptions options)
    : engine_(engine),
      options_(std::move(options)),
      tenants_(engine->config().collect_stats ? engine->counter_registry()
                                              : nullptr),
      admission_(&tenants_, options_.admission) {}

common::Result<size_t> TenantServer::AddTenant(const TenantSpec& spec) {
  return tenants_.Register(spec);
}

common::Result<std::vector<QueryOutcome>> TenantServer::Serve(
    const std::vector<TenantQuery>& queries) {
  return Serve(queries, StepObserver());
}

common::Result<std::vector<QueryOutcome>> TenantServer::Serve(
    const std::vector<TenantQuery>& queries, const StepObserver& observer) {
  if (options_.verify_solo_traces) {
    // The solo re-runs share the engine; reuse would let the served pass warm
    // the solo pass (or vice versa), which is exactly the coupling the
    // bit-identity contract excludes.
    common::Check(!engine_->config().reuse.AnyEnabled(),
                  "verify_solo_traces requires cross-query reuse to be off");
  }

  // Resolve tenant ids up front: an unknown id is a caller bug, not a
  // per-query refusal.
  std::vector<size_t> tenant_of(queries.size(), 0);
  std::vector<QueryOutcome> outcomes(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::optional<size_t> tenant = tenants_.Find(queries[i].tenant);
    if (!tenant.has_value()) {
      return common::Status::NotFound("unknown tenant '" + queries[i].tenant +
                                      "'");
    }
    tenant_of[i] = *tenant;
    outcomes[i].tenant = *tenant;
  }

  // Arrival order: by timestamp, ties by input index (stable), so admission
  // considers queries in the order they reached the door.
  std::vector<size_t> waiting(queries.size());
  for (size_t i = 0; i < waiting.size(); ++i) waiting[i] = i;
  std::stable_sort(waiting.begin(), waiting.end(),
                   [&](size_t a, size_t b) {
                     return queries[a].arrival_seconds <
                            queries[b].arrival_seconds;
                   });

  // The two-level scheduler: WFQ across tenants, the engine's configured
  // session scheduler (or the override) within each tenant.
  WeightedTenantSchedulerOptions sched_options;
  sched_options.inner =
      options_.inner_scheduler.value_or(engine_->config().scheduler);
  sched_options.inner_options.seed = engine_->config().scheduler_seed;
  sched_options.inner_options.starvation_rounds =
      std::max<uint64_t>(1, engine_->config().scheduler_starvation_rounds);
  WeightedTenantScheduler scheduler(&tenants_, sched_options);

  // One admitted session and its charge-delta trackers (the tenant is
  // charged per finished step from the deltas of the session's own trace
  // accounting — no new measurement machinery).
  struct Admitted {
    std::unique_ptr<engine::QuerySession> session;
    size_t query_index = 0;
    size_t tenant = 0;
    bool resolved = false;  ///< Outcome recorded (completed or shed).
    double last_seconds = 0.0;
    uint64_t last_samples = 0;
  };
  std::vector<Admitted> admitted;

  // The global simulated clock: charged work accumulated so far, plus the
  // idle fast-forwards (clock_base) taken while nothing was live.
  double clock_base = 0.0;
  double work_seconds = 0.0;
  // Saturation signal: the peak of the service's pending coalesced frames
  // sampled during the last round's grants (`PendingFrames()` is zero at
  // round boundaries — the queues just flushed — so boundary sampling would
  // never see load). Without a service, the live-session count stands in.
  double peak_pending = 0.0;

  query::DetectorService* service = engine_->detector_service();
  engine::SessionWaveDriver driver(service, [&](size_t sidx) {
    Admitted& a = admitted[sidx];
    a.session->FinishStep();
    const query::DiscoveryPoint& final = a.session->Trace().final;
    const double seconds_delta = final.seconds - a.last_seconds;
    const uint64_t frames_delta = final.samples - a.last_samples;
    a.last_seconds = final.seconds;
    a.last_samples = final.samples;
    work_seconds += seconds_delta;
    tenants_.ChargeStep(a.tenant, seconds_delta, frames_delta);
    QueryOutcome& outcome = outcomes[a.query_index];
    if (outcome.first_result_seconds < 0.0 && final.reported_results > 0) {
      outcome.first_result_seconds = clock_base + work_seconds;
    }
    if (observer) observer(a.query_index, *a.session, clock_base + work_seconds);
  });

  const auto shed_session = [&](Admitted* a, const common::Status& why) {
    // Rounds end with `FlushWave`: the tenant loop plans, sheds and charges
    // on every session's tallies at the boundary, so it never leaves a
    // half-wave on the wire across it.
    common::Check(!driver.InFlight(), "shedding a session with a step in flight");
    a->session->Cancel();
    QueryOutcome& outcome = outcomes[a->query_index];
    outcome.kind = OutcomeKind::kShed;
    outcome.status = why;
    outcome.trace = a->session->Finish();
    outcome.finished_seconds = clock_base + work_seconds;
    tenants_.OnShed(a->tenant);
    a->resolved = true;
  };

  std::vector<query::SessionSchedulerInfo> infos;
  std::vector<size_t> order;
  std::vector<size_t> queued_per_tenant(tenants_.size(), 0);
  size_t stall_rounds = 0;

  while (true) {
    const double now = clock_base + work_seconds;

    // Completion sweep: record outcomes for sessions that reached their stop
    // condition last round. Everything here runs at a round boundary, so
    // every session is quiescent (no pending steps) — the precondition both
    // Finish and Cancel rely on.
    for (Admitted& a : admitted) {
      if (a.resolved || !a.session->Done()) continue;
      QueryOutcome& outcome = outcomes[a.query_index];
      outcome.kind = OutcomeKind::kCompleted;
      outcome.status = common::Status::OK();
      outcome.trace = a.session->Finish();
      outcome.finished_seconds = now;
      tenants_.OnCompleted(a.tenant);
      a.resolved = true;
    }

    // Budget enforcement: a tenant that crossed its GPU-second/frame budget
    // stops receiving grants and its live sessions are shed (their traces end
    // at the last completed step). Future arrivals reject at admission.
    for (size_t t = 0; t < tenants_.size(); ++t) {
      if (!tenants_.OverBudget(t)) continue;
      scheduler.SetTenantRunnable(t, false);
      for (Admitted& a : admitted) {
        if (a.resolved || a.tenant != t) continue;
        shed_session(&a, common::Status::FailedPrecondition(
                             "tenant '" + tenants_.spec(t).id +
                             "' budget exhausted: session shed"));
      }
    }

    // Load shedding: under severe saturation, cancel newest-admitted
    // best-effort sessions until the backlog signal would drop back to the
    // saturation threshold (shed, not hang — interactive sessions are never
    // cancelled).
    if (admission_.SeverelySaturated(peak_pending)) {
      size_t live_now = 0;
      for (const Admitted& a : admitted) {
        if (!a.resolved) ++live_now;
      }
      const double per_session =
          live_now > 0 ? peak_pending / static_cast<double>(live_now) : 0.0;
      const double excess =
          peak_pending - admission_.options().saturation_pending_frames;
      size_t to_shed =
          per_session > 0.0
              ? static_cast<size_t>(std::ceil(excess / per_session))
              : 1;
      for (size_t r = admitted.size(); r > 0 && to_shed > 0; --r) {
        Admitted& a = admitted[r - 1];
        if (a.resolved) continue;
        if (tenants_.spec(a.tenant).slo != SloClass::kBestEffort) continue;
        shed_session(&a, common::Status::FailedPrecondition(
                             "detector saturated: best-effort session shed"));
        --to_shed;
      }
    }
    scheduler.SetSaturated(admission_.Saturated(peak_pending));

    // Admission pass: consider every arrived, still-waiting query in arrival
    // order. Admit → fresh engine session bound to its tenant; queue → hold
    // for a later pass; reject → final outcome with the refusal status.
    size_t live = 0;
    for (const Admitted& a : admitted) {
      if (!a.resolved) ++live;
    }
    std::fill(queued_per_tenant.begin(), queued_per_tenant.end(), 0);
    std::vector<size_t> still_waiting;
    still_waiting.reserve(waiting.size());
    for (const size_t qi : waiting) {
      const size_t t = tenant_of[qi];
      if (queries[qi].arrival_seconds > now) {
        still_waiting.push_back(qi);
        continue;
      }
      const AdmissionVerdict verdict = admission_.Consider(
          t, now, queued_per_tenant[t], live, peak_pending);
      if (verdict.decision == AdmissionDecision::kQueue) {
        ++queued_per_tenant[t];
        still_waiting.push_back(qi);
        continue;
      }
      if (verdict.decision == AdmissionDecision::kReject) {
        outcomes[qi].kind = OutcomeKind::kRejected;
        outcomes[qi].status = verdict.status;
        outcomes[qi].finished_seconds = now;
        tenants_.OnRejected(t);
        continue;
      }
      const engine::QuerySpec& spec = queries[qi].spec;
      auto session =
          engine_->CreateSession(spec.class_id, spec.limit, spec.options);
      if (!session.ok()) {
        // A malformed spec is the query's problem, not the workload's.
        outcomes[qi].kind = OutcomeKind::kRejected;
        outcomes[qi].status = session.status();
        outcomes[qi].finished_seconds = now;
        tenants_.OnRejected(t);
        continue;
      }
      const size_t sidx = admitted.size();
      scheduler.BindSession(sidx, t);
      Admitted a;
      a.session = std::move(session).value();
      a.query_index = qi;
      a.tenant = t;
      admitted.push_back(std::move(a));
      tenants_.OnAdmitted(t);
      outcomes[qi].admitted_seconds = now;
      ++live;
    }
    waiting.swap(still_waiting);
    for (size_t t = 0; t < tenants_.size(); ++t) {
      tenants_.SetQueued(t, queued_per_tenant[t]);
    }

    // Idle fast-forward / termination: with no live work, jump the clock to
    // the next arrival or rate-limit refill instead of spinning.
    if (live == 0) {
      if (waiting.empty()) break;
      double target = std::numeric_limits<double>::infinity();
      for (const size_t qi : waiting) {
        const double arrival = queries[qi].arrival_seconds;
        const double candidate =
            arrival > now ? arrival
                          : admission_.NextTokenTime(tenant_of[qi], now);
        target = std::min(target, candidate);
      }
      // Nothing is live, so the backlog signal has fully drained; clearing
      // it lets saturation-held arrivals through on the next pass.
      peak_pending = 0.0;
      if (target <= now) {
        // A held arrival that is neither time- nor saturation-blocked must
        // admit on the retry pass; more than one retry means a stall.
        common::Check(++stall_rounds <= 1,
                      "serving loop stalled: queued work that can never admit");
        continue;
      }
      stall_rounds = 0;
      clock_base += target - now;
      continue;
    }
    stall_rounds = 0;

    // Plan one round: coordinator-side tallies in, a sequence of step grants
    // out — the same contract RunConcurrent's single-level loop has.
    infos.resize(admitted.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
      const Admitted& a = admitted[i];
      const query::DiscoveryPoint& final = a.session->Trace().final;
      infos[i].steps = a.session->scheduler_stats().steps_granted;
      infos[i].samples = final.samples;
      infos[i].reported_results = final.reported_results;
      infos[i].result_limit = queries[a.query_index].spec.limit;
      infos[i].seconds = final.seconds;
      infos[i].deadline_seconds = queries[a.query_index].spec.deadline_seconds;
      infos[i].done = a.session->Done();
    }
    order.clear();
    scheduler.PlanRound(common::Span<const query::SessionSchedulerInfo>(
                            infos.data(), infos.size()),
                        &order);
    // Live sessions of unrunnable tenants were shed above, so a live set
    // always yields a plan.
    common::Check(!order.empty(), "tenant scheduler planned nothing for live work");

    // Execute the round in waves through the shared driver, sampling the
    // service's backlog after every grant — the peak is next round's
    // saturation signal.
    double round_peak = 0.0;
    bool failed = false;
    for (const size_t sidx : order) {
      common::Check(sidx < admitted.size(),
                    "tenant scheduler planned an unknown session");
      common::Check(!infos[sidx].done,
                    "tenant scheduler planned a finished session");
      if (!driver.Grant(sidx, admitted[sidx].session.get())) {
        failed = true;
        break;
      }
      if (service != nullptr) {
        round_peak = std::max(
            round_peak, static_cast<double>(service->PendingFrames()));
      }
    }
    if (failed || !driver.FlushWave()) break;
    peak_pending =
        service != nullptr ? round_peak : static_cast<double>(live);
  }

  if (!driver.status().ok()) {
    // Transport death: release every half-begun step and the service's
    // queued tickets, then surface the failure instead of partial outcomes.
    // Abort every admitted session, mid-step or not: each must withdraw its
    // wire registration before the transport failure is surfaced, or its id
    // would keep resolving to detectors the session is about to destroy.
    for (Admitted& a : admitted) {
      a.session->AbortStep();
    }
    if (service != nullptr) service->CancelPending();
    return driver.status();
  }

  for (const Admitted& a : admitted) {
    common::Check(a.resolved, "admitted session left unresolved");
  }

  if (options_.verify_solo_traces) {
    // The determinism contract, enforced the MergeShardTraces way: every
    // completed query re-runs solo on the same engine and must reproduce its
    // served trace bit for bit — admission, tenancy, and scheduling may
    // reorder work but never change what any query computes.
    for (size_t i = 0; i < queries.size(); ++i) {
      if (outcomes[i].kind != OutcomeKind::kCompleted) continue;
      const engine::QuerySpec& spec = queries[i].spec;
      auto solo =
          engine_->CreateSession(spec.class_id, spec.limit, spec.options);
      if (!solo.ok()) return solo.status();
      const query::QueryTrace solo_trace = solo.value()->Finish();
      common::Check(
          query::TracesBitIdentical(outcomes[i].trace, solo_trace),
          "served trace diverged from solo run (determinism contract)");
    }
  }

  return outcomes;
}

}  // namespace serve
}  // namespace exsample
