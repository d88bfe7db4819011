// The repository benchmark: three closed-loop query workloads driven through
// the public API, each checked for correct output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit C] [--source-digest D] [--report PATH]
//
// --trace 0 is the untraced run: `EngineConfig::collect_stats = false`, no
// benchmark spans. It prints the end-to-end metrics. --trace 1 runs the same
// untraced phase and then replays exactly the same queries with tracing on
// (engine stats collection plus the benchmark's own spans around each
// layer's public calls); it prints the per-layer metrics, requires the
// traced traces to be bit-identical to the untraced ones, and reports the
// tracing overhead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Workloads (see BENCHMARK.json for why each exists):
//   solo_many_chunks  BDD MOT, one client, recall-target ExSample queries.
//   serve_coalesced   dashcam, waves of 8 sessions through RunConcurrent with
//                     coalesced detect over a 2-shard loopback transport and
//                     simulated, prefetched decode.
//   repeat_reuse      amsterdam, one client, a repeating query stream with
//                     the detection cache and scanned sketch on.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exsample/exsample.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

namespace ex = exsample;
using ex::engine::EngineConfig;
using ex::engine::QueryOptions;
using ex::engine::SearchEngine;
using ex::query::QueryTrace;

// ---------------------------------------------------------------------------
// Metric declarations. BENCHMARK.json lists the same names and units; run.py
// refuses a result whose keys differ from it.
// ---------------------------------------------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

constexpr MetricDecl kEndToEnd[] = {
    {"query_wall_ms_p50", "ms"},   {"query_wall_ms_p90", "ms"},
    {"first_result_ms_p50", "ms"}, {"first_result_ms_p90", "ms"},
    {"frames_per_s", "frames/s"},  {"sim_s_per_query", "s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MiB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"core.pick_s", "s"},
    {"core.pick_us_p50", "us"},
    {"core.pick_us_p99", "us"},
    {"core.picks", "count"},
    {"core.observe_s", "s"},
    {"detect.detect_s", "s"},
    {"detect.frames", "count"},
    {"track.discriminate_s", "s"},
    {"track.discriminate_us_p50", "us"},
    {"video.decode_s", "s"},
    {"video.decode_us_p90", "us"},
    {"video.async_read_frac", "ratio"},
    {"query.submit_to_grant_us_p50", "us"},
    {"query.submit_to_grant_us_p90", "us"},
    {"query.flushes", "count"},
    {"query.device_batch_fill", "ratio"},
    {"query.device_batches", "count"},
    {"query.shared_batch_frac", "ratio"},
    {"query.transport_rtt_us_p50", "us"},
    {"query.transport_rtt_us_p90", "us"},
    {"query.wire_bytes_per_frame", "bytes/frame"},
    {"query.wire_retries", "count"},
    {"query.requeues", "count"},
    {"engine.step_us_p50", "us"},
    {"engine.step_us_p90", "us"},
    {"engine.steps", "count"},
    {"engine.wave_ms_p50", "ms"},
    {"reuse.classify_s", "s"},
    {"reuse.cache_hit_rate", "ratio"},
    {"reuse.sketch_skip_frac", "ratio"},
    {"reuse.evictions", "count"},
    {"reuse.detector_s_saved", "s"},
    {"datasets.build_s", "s"},
    {"engine.warmup_s", "s"},
    {"stats.trace_overhead_frac", "ratio"},
};

/// A measured value, where it came from, and (for distributions) how many
/// samples it summarizes. Units live in the declaration tables above.
struct Value {
  double value = 0.0;
  std::string source;
  size_t samples = 0;
};

/// Collects metrics by name; a percentile that fails the tail rule is a
/// benchmark error, not a number.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& source,
           size_t samples = 0) {
    values_[name] = Value{value, source, samples};
  }
  /// `scale` converts seconds into the metric's unit.
  void SetPercentile(const std::string& name, const std::vector<double>& seconds,
                     double p, double scale, const std::string& source) {
    std::string error;
    const auto pct = TailPercentile(seconds, p, &error);
    if (!pct.has_value()) {
      errors_.push_back(name + ": " + error);
      return;
    }
    Set(name, pct->value * scale, source, pct->samples);
  }
  /// Percentile of an engine stage-timer histogram. The histogram only
  /// approximates the value (1/10-decade bins), but the tail rule is the
  /// same: at least kMinTailSamples samples beyond it.
  void SetStagePercentile(const std::string& name, const ex::stats::StageTimer& timer,
                          ex::stats::Stage stage, double p, double scale) {
    const uint64_t n = timer.Count(stage);
    if (n == 0) return;  // Layer not exercised: left at its declared zero.
    const auto rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
    if (n - std::min(rank, n) < kMinTailSamples) {
      errors_.push_back(name + ": too few stage samples beyond p" +
                        std::to_string(static_cast<int>(p * 100)));
      return;
    }
    Set(name, timer.ApproxQuantileSeconds(stage, p) * scale, "engine.stage_timer",
        static_cast<size_t>(n));
  }

  const std::map<std::string, Value>& values() const { return values_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, Value> values_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string report_path;
};

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

size_t CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string ContextJson(const Args& args) {
  std::string out = "{";
  out += "\"workload\": " + Quote(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + Num(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"nproc\": " + std::to_string(CpusAvailable());
  out += ", \"compiler\": " + Quote(CompilerName());
  out += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + Quote(PERFBENCH_CXX_FLAGS);
  out += ", \"commit\": " + Quote(args.commit);
  out += ", \"source_digest\": " + Quote(args.source_digest);
  return out + "}";
}

// ---------------------------------------------------------------------------
// Per-query records and the workload interface
// ---------------------------------------------------------------------------

/// One query as the benchmark observed it.
struct QueryRecord {
  double wall_s = 0.0;          ///< Submit -> finished trace.
  double first_result_s = -1;   ///< Submit -> first reported result; -1 if none.
  bool reached = false;         ///< Hit its stop condition.
  std::string failure;          ///< Non-empty once any check failed.
  QueryTrace trace;
};

/// What a run of a workload's query list produced.
struct Phase {
  std::vector<QueryRecord> queries;
  double wall_s = 0.0;  ///< Whole timed phase.
  /// Peak RSS once the fixed query prefix (`min_queries()`) finished: how far
  /// a run gets past the prefix depends on machine speed, and the records it
  /// keeps would otherwise make memory track speed.
  double prefix_peak_rss_mb = 0.0;
  // Traced-phase extras (left empty in the untraced phase).
  SpanLog spans;
  std::vector<double> round_s;  ///< Scheduler rounds (observer-based, see RoundTimer).
  uint64_t session_steps = 0;   ///< Session steps the observer saw.
  std::vector<double> wave_s;
  double saved_detector_s = 0.0;
  uint64_t detected_frames = 0;
  uint64_t async_reads = 0;
  uint64_t inline_reads = 0;

  void NotePrefixRss() { prefix_peak_rss_mb = PeakRssMiB().value_or(0.0); }
};

/// Set-up timings of one repetition.
struct SetupTiming {
  double build_s = 0.0;
  double warmup_s = 0.0;
};

constexpr double kScale = 0.1;  // The CLI's default dataset scale.
// The corpus (the emulated video collection) is the same for every seed; the
// seed generates the query stream run against it. A per-seed corpus would add
// input variance that no engine change causes.
constexpr uint64_t kCorpusSeed = 1;
// Set-up repeats until this much time was spent (within the rep bounds), and
// setup_s is the median repetition.
constexpr double kSetupBudgetS = 0.3;
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 50;
// Wall budget of a whole run. A program slow enough to overrun it ends its
// phases early and still reports numbers (run.py kills the run only 10 s past
// it). A phase cut by the budget still completes kMinQueries queries: p90
// needs at least kMinTailSamples samples beyond it.
constexpr double kBudgetS = 160.0;
constexpr size_t kMinQueries = 100;

uint64_t Mix(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  /// Queries a run must complete at least (>= 100 so that p90 has >= 10
  /// samples beyond it).
  virtual size_t min_queries() const = 0;

  /// Builds the dataset (timed as build) and an untraced engine with its lazy
  /// set-up finished (timed as warmup). Called repeatedly; the last
  /// repetition's dataset and engine are the ones the run uses.
  SetupTiming Setup() {
    engine_.reset();
    dataset_.reset();
    SetupTiming timing;
    double start = NowSeconds();
    auto built = ex::datasets::BuiltDataset::Build(Spec(), kCorpusSeed, kScale);
    ex::common::CheckOk(built.status(), "dataset build failed");
    dataset_ = std::make_unique<ex::datasets::BuiltDataset>(std::move(built).value());
    timing.build_s = NowSeconds() - start;
    start = NowSeconds();
    engine_ = MakeEngine(/*collect_stats=*/false);
    timing.warmup_s = NowSeconds() - start;
    return timing;
  }

  /// Runs the untraced closed loop until `seconds` have passed and at least
  /// `min_queries()` queries finished, or until `deadline` (see
  /// `StopUntraced`).
  virtual Phase RunUntraced(double seconds, double deadline) = 0;
  /// Replays the first `count` queries of the same list on a fresh, traced
  /// engine, ending early once `deadline` passed.
  virtual Phase RunTraced(size_t count, double deadline) = 0;
  /// Checks every query's output against its reference; marks failures.
  virtual void CheckOutputs(Phase* phase) = 0;
  /// Layer-exercise guards over the untraced engine; empty when all pass.
  virtual std::vector<std::string> Guards(const Phase& phase) = 0;
  /// Per-layer metrics of a traced phase.
  virtual void LayerMetrics(const Phase& traced, MetricSet* out) = 0;
  /// Input size, for frames_per_s.
  std::string InputSize() const {
    const auto& d = *dataset_;
    return d.spec().name + " at scale 0.1: " +
           std::to_string(d.repo().TotalFrames()) + " frames, " +
           std::to_string(d.chunking().NumChunks()) + " chunks, " +
           std::to_string(d.spec().queries.size()) + " classes";
  }
  /// Extra figures a workload reports beside its metrics (printed and in the
  /// report, never in the result line).
  const std::map<std::string, double>& notes() const { return notes_; }
  /// Engine stage timer of the last traced engine (for the stage table).
  const ex::stats::StageTimer* traced_stage_timer() const {
    return traced_engine_ == nullptr ? nullptr : &traced_engine_->stage_timer();
  }

 protected:
  virtual ex::datasets::DatasetSpec Spec() const = 0;
  virtual EngineConfig Config() const = 0;

  std::unique_ptr<SearchEngine> MakeEngine(bool collect_stats) {
    EngineConfig config = Config();
    config.collect_stats = collect_stats;
    auto engine = std::make_unique<SearchEngine>(&dataset_->repo(),
                                                 &dataset_->chunking(),
                                                 &dataset_->truth(), config);
    // Finish first-use lazy set-up: pools, the detect service (and with it
    // the loopback transport's runner threads), and the reuse state.
    engine->thread_pool();
    engine->io_pool();
    engine->detector_service();
    engine->reuse_manager();
    return engine;
  }

  /// Whether an untraced loop that finished `done` queries stops: once the
  /// fixed prefix ran and `seconds` passed, or, on a program too slow for the
  /// run's budget, at `deadline` once every percentile has its tail.
  bool StopUntraced(size_t done, double start, double seconds, double deadline) const {
    const double now = NowSeconds();
    if (done >= min_queries() && now - start >= seconds) return true;
    return done >= kMinQueries && now >= deadline;
  }

  int32_t NumClasses() const {
    return static_cast<int32_t>(dataset_->spec().queries.size());
  }

  uint64_t seed_;
  std::unique_ptr<ex::datasets::BuiltDataset> dataset_;
  std::unique_ptr<SearchEngine> engine_;
  std::unique_ptr<SearchEngine> traced_engine_;
  std::map<std::string, double> notes_;
};

/// Marks a record failed (keeping the first reason).
void Fail(QueryRecord* record, const std::string& why) {
  if (record->failure.empty()) record->failure = why;
}

/// Common layer metrics every workload reports from the engine's stage timer.
void StageTimerMetrics(const ex::stats::StageTimer& t, MetricSet* out) {
  using ex::stats::Stage;
  const auto total = [&](const char* name, Stage stage) {
    if (t.Count(stage) > 0) {
      out->Set(name, t.TotalSeconds(stage), "engine.stage_timer", t.Count(stage));
    }
  };
  total("core.pick_s", Stage::kPick);
  if (t.Count(Stage::kPick) > 0) {
    out->Set("core.picks", static_cast<double>(t.Count(Stage::kPick)),
             "engine.stage_timer");
  }
  out->SetStagePercentile("core.pick_us_p50", t, Stage::kPick, 0.5, 1e6);
  out->SetStagePercentile("core.pick_us_p99", t, Stage::kPick, 0.99, 1e6);
  total("core.observe_s", Stage::kObserve);
  total("detect.detect_s", Stage::kDetect);
  total("track.discriminate_s", Stage::kDiscriminate);
  out->SetStagePercentile("track.discriminate_us_p50", t, Stage::kDiscriminate, 0.5,
                          1e6);
  total("video.decode_s", Stage::kDecode);
  out->SetStagePercentile("video.decode_us_p90", t, Stage::kDecode, 0.9, 1e6);
  total("reuse.classify_s", Stage::kClassify);
  out->SetStagePercentile("query.transport_rtt_us_p50", t, Stage::kTransport, 0.5,
                          1e6);
  out->SetStagePercentile("query.transport_rtt_us_p90", t, Stage::kTransport, 0.9,
                          1e6);
}

// ---------------------------------------------------------------------------
// solo_many_chunks
// ---------------------------------------------------------------------------

class SoloManyChunks : public Workload {
 public:
  using Workload::Workload;
  size_t min_queries() const override { return 2000; }

  // Queries stop at a small recall target, so a 30 s run holds ~2500 of them:
  // the first-result tail is set by the rarest classes (train, trailer), and
  // its run-to-run spread shrinks only with more of their queries. A query's
  // first result lands at a whole number of batches; at batch 10 the median
  // falls inside one batch count's share of queries, where at 8 or 16 it sits
  // on the boundary between two and flips from seed to seed.
  static constexpr double kRecall = 0.01;
  static constexpr size_t kBatch = 10;

  Phase RunUntraced(double seconds, double deadline) override {
    Phase phase;
    const double start = NowSeconds();
    for (size_t i = 0;; ++i) {
      if (StopUntraced(i, start, seconds, deadline)) break;
      phase.queries.push_back(RunOne(i));
      if (phase.queries.size() == min_queries()) phase.NotePrefixRss();
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  }

  Phase RunTraced(size_t count, double deadline) override {
    Phase phase;
    traced_engine_ = MakeEngine(/*collect_stats=*/true);
    const double start = NowSeconds();
    for (size_t i = 0; i < count && (i == 0 || NowSeconds() < deadline); ++i) {
      phase.queries.push_back(RunOneTraced(i, &phase.spans));
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  }

  void CheckOutputs(Phase* phase) override {
    for (QueryRecord& q : phase->queries) {
      if (!q.reached) Fail(&q, "did not reach its recall target");
    }
  }

  std::vector<std::string> Guards(const Phase&) override {
    std::vector<std::string> failed;
    // The solo path must bypass the shared service and reuse entirely.
    if (engine_->detector_service() != nullptr) {
      failed.push_back("solo run built a detector service");
    }
    if (engine_->reuse_manager() != nullptr) {
      failed.push_back("solo run built reuse state");
    }
    if (service_frames_ != 0) failed.push_back("solo sessions submitted to a service");
    if (reuse_events_ != 0) failed.push_back("solo sessions hit reuse");
    return failed;
  }

  void LayerMetrics(const Phase& traced, MetricSet* out) override {
    const SpanLog& log = traced.spans;
    const char* src = "bench.spans";
    out->Set("core.pick_s", log.TotalSeconds(Layer::kPick), src);
    out->Set("core.picks", static_cast<double>(log.Count(Layer::kPick)), src);
    out->SetPercentile("core.pick_us_p50", log.PerStep(Layer::kPick), 0.5, 1e6, src);
    out->SetPercentile("core.pick_us_p99", log.PerStep(Layer::kPick), 0.99, 1e6,
                       src);
    out->Set("core.observe_s", log.TotalSeconds(Layer::kObserve), src);
    out->Set("detect.detect_s", log.TotalSeconds(Layer::kDetect), src);
    uint64_t frames = 0;
    for (const QueryRecord& q : traced.queries) frames += q.trace.final.samples;
    out->Set("detect.frames", static_cast<double>(frames), "trace.samples");
    out->Set("track.discriminate_s", log.TotalSeconds(Layer::kDiscriminate), src);
    out->SetPercentile("track.discriminate_us_p50", log.PerStep(Layer::kDiscriminate),
                       0.5, 1e6, src);
    const std::vector<double> steps = log.PerStep(Layer::kStep);
    out->SetPercentile("engine.step_us_p50", steps, 0.5, 1e6, src);
    out->SetPercentile("engine.step_us_p90", steps, 0.9, 1e6, src);
    out->Set("engine.steps", static_cast<double>(steps.size()), src);
  }

 protected:
  ex::datasets::DatasetSpec Spec() const override {
    return ex::datasets::BddMotSpec();
  }
  EngineConfig Config() const override { return EngineConfig(); }

 private:
  QueryOptions Options(size_t i) const {
    QueryOptions options;
    options.method = ex::engine::Method::kExSample;
    options.batch_size = kBatch;
    options.exsample.seed = Mix(seed_, i);
    return options;
  }
  int32_t ClassOf(size_t i) const { return static_cast<int32_t>(i % NumClasses()); }
  uint64_t Target(int32_t cls) const {
    const uint64_t total = dataset_->truth().NumInstances(cls);
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(kRecall * static_cast<double>(total))));
  }

  // Untraced: an engine session stepped by the benchmark until the recall
  // target, then cancelled and finished — the same trace `RunToRecall`
  // returns (the runner checks its stop condition at the same batch
  // boundaries).
  QueryRecord RunOne(size_t i) {
    QueryRecord record;
    const int32_t cls = ClassOf(i);
    const uint64_t target = Target(cls);
    const double start = NowSeconds();
    auto created =
        engine_->CreateSession(cls, std::numeric_limits<uint64_t>::max(), Options(i));
    if (!created.ok()) {
      Fail(&record, created.status().ToString());
      return record;
    }
    ex::engine::QuerySession& session = *created.value();
    while (session.Trace().final.true_distinct < target && session.Step()) {
      if (record.first_result_s < 0 && session.Trace().final.reported_results > 0) {
        record.first_result_s = NowSeconds() - start;
      }
    }
    session.Cancel();
    record.trace = session.Finish();
    record.wall_s = NowSeconds() - start;
    record.reached = record.trace.final.true_distinct >= target;
    service_frames_ += session.scheduler_stats().frames_submitted;
    const ex::reuse::ReuseSessionStats& reuse = session.reuse_stats();
    reuse_events_ += reuse.cache_hits + reuse.cache_misses + reuse.sketch_skips;
    return record;
  }

  // Traced: the same query assembled from the engine's strategy and the
  // session's detector/discriminator types, each behind a span decorator,
  // driven by the runner's execution loop.
  QueryRecord RunOneTraced(size_t i, SpanLog* log) {
    QueryRecord record;
    const int32_t cls = ClassOf(i);
    const uint64_t target = Target(cls);
    const EngineConfig& config = traced_engine_->config();
    const double start = NowSeconds();
    auto strategy = traced_engine_->MakeStrategy(cls, Options(i));
    if (!strategy.ok()) {
      Fail(&record, strategy.status().ToString());
      return record;
    }
    TracedStrategy traced_strategy(std::move(strategy).value(), log);
    ex::detect::DetectorOptions det_opts = config.detector;
    det_opts.target_class = cls;
    ex::detect::SimulatedDetector detector(&dataset_->truth(), det_opts);
    TracedDetector traced_detector(&detector, log);
    ex::track::IouTrackerDiscriminator discriminator(&dataset_->truth(), config.tracker);
    TracedDiscriminator traced_discriminator(&discriminator, log);
    ex::query::RunnerOptions options;
    options.recall_class = cls;
    options.true_distinct_target = target;
    options.max_samples = dataset_->repo().TotalFrames();
    options.batch_size = kBatch;
    ex::query::QueryExecution execution(&dataset_->truth(), &traced_detector,
                                        &traced_discriminator, &traced_strategy, options);
    while (execution.trace().final.true_distinct < target) {
      log->BeginStep(NowSeconds());
      const bool progressed = execution.Step();
      log->EndStep(NowSeconds());
      if (!progressed) break;
      if (record.first_result_s < 0 && execution.trace().final.reported_results > 0) {
        record.first_result_s = NowSeconds() - start;
      }
    }
    record.trace = execution.Finish();
    record.wall_s = NowSeconds() - start;
    record.reached = record.trace.final.true_distinct >= target;
    return record;
  }

  uint64_t service_frames_ = 0;
  uint64_t reuse_events_ = 0;
};

// ---------------------------------------------------------------------------
// serve_coalesced
// ---------------------------------------------------------------------------

class ServeCoalesced : public Workload {
 public:
  using Workload::Workload;
  size_t min_queries() const override { return 640; }

  static constexpr size_t kWave = 8;
  static constexpr uint64_t kLimit = 10;
  static constexpr size_t kBatch = 8;

  Phase RunUntraced(double seconds, double deadline) override {
    Phase phase;
    const double start = NowSeconds();
    for (size_t wave = 0;; ++wave) {
      if (StopUntraced(phase.queries.size(), start, seconds, deadline)) break;
      const bool before_prefix = phase.queries.size() < min_queries();
      RunWave(engine_.get(), wave, &phase, /*traced=*/false);
      if (before_prefix && phase.queries.size() >= min_queries()) phase.NotePrefixRss();
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  }

  Phase RunTraced(size_t count, double deadline) override {
    Phase phase;
    traced_engine_ = MakeEngine(/*collect_stats=*/true);
    const double start = NowSeconds();
    for (size_t wave = 0; wave * kWave < count && (wave == 0 || NowSeconds() < deadline);
         ++wave) {
      RunWave(traced_engine_.get(), wave, &phase, /*traced=*/true);
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  }

  // Each session's trace must equal a solo, single-threaded engine run of the
  // same spec over the same shard layout and decode pricing.
  void CheckOutputs(Phase* phase) override {
    EngineConfig config = Config();
    config.coalesce_detect = false;
    config.transport = ex::engine::TransportKind::kLocal;
    config.prefetch_depth = 0;
    config.io_threads = 0;
    config.decode_cost.wall_clock_scale = 0.0;  // Charges only, no sleeping.
    config.collect_stats = false;
    SearchEngine reference(&dataset_->repo(), &dataset_->chunking(), &dataset_->truth(),
                           config);
    for (size_t i = 0; i < phase->queries.size(); ++i) {
      QueryRecord& q = phase->queries[i];
      if (!q.failure.empty()) continue;
      if (!q.reached) Fail(&q, "did not reach its result limit");
      const ex::engine::QuerySpec spec = SpecAt(i);
      auto solo = reference.FindDistinct(spec.class_id, spec.limit, spec.options);
      if (!solo.ok()) {
        Fail(&q, "reference failed: " + solo.status().ToString());
      } else if (!ex::query::TracesBitIdentical(solo.value(), q.trace)) {
        Fail(&q, "trace differs from the solo reference");
      }
    }
  }

  std::vector<std::string> Guards(const Phase& phase) override {
    std::vector<std::string> failed;
    const ex::query::DetectorService* service = engine_->detector_service();
    if (service == nullptr || service->stats().device_batches == 0) {
      failed.push_back("no coalesced device batches (service.device_batches == 0)");
    }
    const ex::query::ShardTransport* transport = engine_->shard_transport();
    if (transport == nullptr || transport->Stats().requests == 0) {
      failed.push_back("no wire requests (transport.requests == 0)");
    }
    if (phase.async_reads == 0) failed.push_back("no asynchronous decode reads");
    return failed;
  }

  void LayerMetrics(const Phase& traced, MetricSet* out) override {
    const ex::stats::StageTimer& timer = traced_engine_->stage_timer();
    StageTimerMetrics(timer, out);
    const ex::query::DetectorService* service = traced_engine_->detector_service();
    const ex::query::DetectorServiceStats& s = service->stats();
    const char* src = "service.stats";
    out->Set("detect.frames", static_cast<double>(s.frames), src);
    out->SetPercentile("query.submit_to_grant_us_p50", service->TicketLatencies(), 0.5,
                       1e6, "service.ticket_latencies");
    out->SetPercentile("query.submit_to_grant_us_p90", service->TicketLatencies(), 0.9,
                       1e6, "service.ticket_latencies");
    out->Set("query.flushes", static_cast<double>(s.flushes), src);
    out->Set("query.device_batch_fill", service->FillRate(), src);
    out->Set("query.device_batches", static_cast<double>(s.device_batches), src);
    out->Set("query.shared_batch_frac",
             Ratio(static_cast<double>(s.shared_batches),
                   static_cast<double>(s.device_batches)), src);
    const ex::query::TransportStats t = traced_engine_->shard_transport()->Stats();
    out->Set("query.wire_bytes_per_frame",
             Ratio(static_cast<double>(t.bytes_sent + t.bytes_received),
                   static_cast<double>(s.frames)), "transport.stats");
    out->Set("query.wire_retries", static_cast<double>(s.wire_retries), src);
    out->Set("query.requeues", static_cast<double>(s.wire_requeues), src);
    out->Set("video.async_read_frac",
             Ratio(static_cast<double>(traced.async_reads),
                   static_cast<double>(traced.async_reads + traced.inline_reads)),
             "session.prefetcher");
    // Concurrent sessions step in rounds: the time a step takes is the time
    // its round takes, which the observer sees one round at a time.
    out->SetPercentile("engine.step_us_p50", traced.round_s, 0.5, 1e6,
                       "bench.observer (one sample per scheduler round)");
    out->SetPercentile("engine.step_us_p90", traced.round_s, 0.9, 1e6,
                       "bench.observer (one sample per scheduler round)");
    out->Set("engine.steps", static_cast<double>(traced.session_steps),
             "bench.observer (session steps)");
    out->Set("engine.wave_ms_p50", Median(traced.wave_s) * 1e3, "bench.spans",
             traced.wave_s.size());
  }

 protected:
  ex::datasets::DatasetSpec Spec() const override {
    return ex::datasets::DashcamSpec();
  }
  EngineConfig Config() const override {
    EngineConfig config;
    config.num_shards = 2;
    config.coalesce_detect = true;
    config.transport = ex::engine::TransportKind::kLoopback;
    config.loopback.latency_seconds = 0.0005;  // One device call per wire request.
    config.simulate_decode = true;
    config.decode_cost.wall_clock_scale = 0.001;
    config.prefetch_depth = kBatch;
    config.io_threads = 2;  // The caller plus one I/O worker thread.
    return config;
  }

 private:
  ex::engine::QuerySpec SpecAt(size_t i) const {
    ex::engine::QuerySpec spec;
    spec.class_id = static_cast<int32_t>(i % NumClasses());
    spec.limit = kLimit;
    spec.options.method = ex::engine::Method::kExSample;
    spec.options.batch_size = kBatch;
    spec.options.exsample.seed = Mix(seed_, i);
    return spec;
  }

  void RunWave(SearchEngine* engine, size_t wave, Phase* phase, bool traced) {
    const size_t base = wave * kWave;
    std::vector<ex::engine::QuerySpec> specs;
    for (size_t k = 0; k < kWave; ++k) specs.push_back(SpecAt(base + k));
    std::vector<QueryRecord> records(kWave);
    std::vector<double> last_step(kWave, -1.0);
    std::vector<ex::query::PrefetchStats> prefetch(kWave);
    const double start = NowSeconds();
    RoundTimer rounds(start);
    const SearchEngine::SessionObserver observer =
        [&](size_t idx, const ex::engine::QuerySession& session) {
          const double now = NowSeconds();
          last_step[idx] = now;
          if (records[idx].first_result_s < 0 &&
              session.Trace().final.reported_results > 0) {
            records[idx].first_result_s = now - start;
          }
          if (session.prefetcher() != nullptr) {
            prefetch[idx] = session.prefetcher()->stats();
          }
          if (traced) rounds.Step(idx, now);
        };
    auto traces = engine->RunConcurrent(specs, observer);
    const double end = NowSeconds();
    if (traced) {
      rounds.Close();
      phase->round_s.insert(phase->round_s.end(), rounds.rounds().begin(),
                            rounds.rounds().end());
      phase->session_steps += rounds.steps();
      phase->wave_s.push_back(end - start);
    }
    for (size_t k = 0; k < kWave; ++k) {
      QueryRecord& r = records[k];
      r.wall_s = (last_step[k] >= 0 ? last_step[k] : end) - start;
      if (!traces.ok()) {
        Fail(&r, traces.status().ToString());
      } else {
        r.trace = traces.value()[k];
        r.reached = r.trace.final.reported_results >= kLimit;
      }
      phase->async_reads += prefetch[k].async_reads;
      phase->inline_reads += prefetch[k].inline_reads;
      phase->queries.push_back(std::move(r));
    }
  }
};

// ---------------------------------------------------------------------------
// repeat_reuse
// ---------------------------------------------------------------------------

class RepeatReuse : public Workload {
 public:
  using Workload::Workload;
  size_t min_queries() const override { return 2000; }

  static constexpr uint64_t kLimit = 50;
  static constexpr size_t kBatch = 8;
  static constexpr size_t kLiveSeeds = 3;
  static constexpr size_t kQueriesPerSeed = 4;
  static constexpr size_t kCacheBudgetFrames = 5000;

  Phase RunUntraced(double seconds, double deadline) override {
    Phase phase;
    const double start = NowSeconds();
    for (size_t i = 0;; ++i) {
      if (StopUntraced(i, start, seconds, deadline)) break;
      phase.queries.push_back(RunOne(engine_.get(), i, nullptr));
      if (phase.queries.size() == min_queries()) phase.NotePrefixRss();
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  }

  Phase RunTraced(size_t count, double deadline) override {
    Phase phase;
    traced_engine_ = MakeEngine(/*collect_stats=*/true);
    const double start = NowSeconds();
    for (size_t i = 0; i < count && (i == 0 || NowSeconds() < deadline); ++i) {
      phase.queries.push_back(RunOne(traced_engine_.get(), i, &phase));
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  }

  // Each query's discovery sequence must equal a reuse-off run of the same
  // query, and reuse may only lower its charged seconds.
  void CheckOutputs(Phase* phase) override {
    EngineConfig config = Config();
    config.reuse = ex::reuse::ReuseOptions();
    config.collect_stats = false;
    SearchEngine reference(&dataset_->repo(), &dataset_->chunking(), &dataset_->truth(),
                           config);
    std::map<size_t, QueryTrace> cold;  // By pair: a repeated pair reuses its reference.
    double cold_sim = 0.0;
    for (size_t i = 0; i < phase->queries.size(); ++i) {
      QueryRecord& q = phase->queries[i];
      if (!q.failure.empty()) continue;
      if (!q.reached) Fail(&q, "did not reach its result limit");
      const size_t pair = PairOf(i);
      auto it = cold.find(pair);
      if (it == cold.end()) {
        auto run = reference.FindDistinct(ClassOfPair(pair), kLimit, OptionsOfPair(pair));
        if (!run.ok()) {
          Fail(&q, "reference failed: " + run.status().ToString());
          continue;
        }
        it = cold.emplace(pair, std::move(run).value()).first;
      }
      const std::string diff = CompareToCold(it->second, q.trace);
      if (!diff.empty()) Fail(&q, diff);
      if (i < min_queries()) cold_sim += it->second.final.seconds;
    }
    // The same prefix sim_s_per_query averages over, charged without reuse.
    notes_["reuse_off_sim_s_per_query"] =
        Ratio(cold_sim,
              static_cast<double>(std::min(min_queries(), phase->queries.size())));
  }

  std::vector<std::string> Guards(const Phase&) override {
    std::vector<std::string> failed;
    ex::reuse::ReuseManager* reuse = engine_->reuse_manager();
    if (reuse == nullptr) return {"reuse is off"};
    const ex::reuse::DetectionCacheStats c = reuse->cache().Stats();
    const ex::reuse::ScannedSketchStats k = reuse->sketch().Stats();
    if (c.hits == 0) failed.push_back("no cache hits");
    if (c.evicted_empty + c.evicted_nonempty == 0) failed.push_back("no cache evictions");
    if (k.known_empty == 0) failed.push_back("no sketch skips");
    return failed;
  }

  void LayerMetrics(const Phase& traced, MetricSet* out) override {
    StageTimerMetrics(traced_engine_->stage_timer(), out);
    ex::reuse::ReuseManager* reuse = traced_engine_->reuse_manager();
    const ex::reuse::DetectionCacheStats c = reuse->cache().Stats();
    const ex::reuse::ScannedSketchStats k = reuse->sketch().Stats();
    uint64_t picked = 0;
    for (const QueryRecord& q : traced.queries) picked += q.trace.final.samples;
    out->Set("detect.frames", static_cast<double>(traced.detected_frames),
             "session.reuse_stats");
    out->Set("reuse.cache_hit_rate",
             Ratio(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses)),
             "reuse.cache");
    out->Set("reuse.sketch_skip_frac",
             Ratio(static_cast<double>(k.known_empty), static_cast<double>(picked)),
             "reuse.sketch");
    out->Set("reuse.evictions", static_cast<double>(c.evicted_empty + c.evicted_nonempty),
             "reuse.cache");
    out->Set("reuse.detector_s_saved", traced.saved_detector_s, "session.reuse_stats");
    const std::vector<double> steps = traced.spans.PerStep(Layer::kStep);
    out->SetPercentile("engine.step_us_p50", steps, 0.5, 1e6, "bench.spans");
    out->SetPercentile("engine.step_us_p90", steps, 0.9, 1e6, "bench.spans");
    out->Set("engine.steps", static_cast<double>(steps.size()), "bench.spans");
  }

 protected:
  ex::datasets::DatasetSpec Spec() const override {
    return ex::datasets::AmsterdamSpec();
  }
  EngineConfig Config() const override {
    EngineConfig config;
    config.reuse.cache = true;
    config.reuse.sketch = true;
    config.reuse.cache_budget_frames = kCacheBudgetFrames;
    return config;
  }

 private:
  // Classes cycle (a fixed class mix keeps the percentiles comparable across
  // seeds). Each class keeps a sliding window of kLiveSeeds live query seeds
  // that advances every kQueriesPerSeed of its queries, and a query picks one
  // of them at random: later queries repeat recent ones and revisit their
  // frames, while new seeds keep arriving, so the hit/miss mix is steady over
  // the run. A pair index is class + classes * seed index.
  size_t PairOf(size_t i) const {
    const size_t classes = static_cast<size_t>(NumClasses());
    const size_t generation = i / (classes * kQueriesPerSeed);
    return i % classes +
           classes * (generation + Mix(seed_ ^ 0x5eedULL, i) % kLiveSeeds);
  }
  int32_t ClassOfPair(size_t pair) const {
    return static_cast<int32_t>(pair % static_cast<size_t>(NumClasses()));
  }
  QueryOptions OptionsOfPair(size_t pair) const {
    QueryOptions options;
    options.method = ex::engine::Method::kExSample;
    options.batch_size = kBatch;
    options.exsample.seed = Mix(seed_, pair / static_cast<size_t>(NumClasses()));
    return options;
  }

  QueryRecord RunOne(SearchEngine* engine, size_t i, Phase* traced) {
    QueryRecord record;
    const size_t pair = PairOf(i);
    const double start = NowSeconds();
    auto created = engine->CreateSession(ClassOfPair(pair), kLimit, OptionsOfPair(pair));
    if (!created.ok()) {
      Fail(&record, created.status().ToString());
      return record;
    }
    ex::engine::QuerySession& session = *created.value();
    for (;;) {
      if (traced != nullptr) traced->spans.BeginStep(NowSeconds());
      const bool progressed = session.Step();
      if (traced != nullptr) traced->spans.EndStep(NowSeconds());
      if (!progressed) break;
      if (record.first_result_s < 0 && session.Trace().final.reported_results > 0) {
        record.first_result_s = NowSeconds() - start;
      }
    }
    record.trace = session.Finish();
    record.wall_s = NowSeconds() - start;
    record.reached = record.trace.final.reported_results >= kLimit;
    if (traced != nullptr) {
      traced->saved_detector_s += session.reuse_stats().saved_detector_seconds;
      traced->detected_frames += session.reuse_stats().cache_misses;
    }
    return record;
  }

  static std::string CompareToCold(const QueryTrace& cold, const QueryTrace& warm) {
    const auto same = [](const ex::query::DiscoveryPoint& a,
                         const ex::query::DiscoveryPoint& b) {
      return a.samples == b.samples && a.reported_results == b.reported_results &&
             a.true_distinct == b.true_distinct;
    };
    if (cold.points.size() != warm.points.size()) {
      return "discovery sequence length differs from the reuse-off run";
    }
    for (size_t p = 0; p < cold.points.size(); ++p) {
      if (!same(cold.points[p], warm.points[p])) {
        return "discovery point " + std::to_string(p) + " differs from the reuse-off run";
      }
      if (warm.points[p].seconds > cold.points[p].seconds) {
        return "reuse charged more seconds than the reuse-off run";
      }
    }
    if (!same(cold.final, warm.final) || warm.final.seconds > cold.final.seconds) {
      return "final point differs from the reuse-off run";
    }
    return "";
  }
};

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "solo_many_chunks") return std::make_unique<SoloManyChunks>(seed);
  if (name == "serve_coalesced") return std::make_unique<ServeCoalesced>(seed);
  if (name == "repeat_reuse") return std::make_unique<RepeatReuse>(seed);
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else if (key == "--report") {
      args->report_path = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (!(args->seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  return true;
}

std::vector<double> Collect(const std::vector<QueryRecord>& queries,
                            const std::function<double(const QueryRecord&)>& field) {
  std::vector<double> out;
  for (const QueryRecord& q : queries) {
    const double v = field(q);
    if (v >= 0.0) out.push_back(v);
  }
  return out;
}

void EndToEndMetrics(const Workload& workload, const Phase& phase,
                     const std::vector<SetupTiming>& setups, MetricSet* out) {
  const auto& qs = phase.queries;
  const std::vector<double> wall =
      Collect(qs, [](const QueryRecord& q) { return q.wall_s; });
  const std::vector<double> first =
      Collect(qs, [](const QueryRecord& q) { return q.first_result_s; });
  out->SetPercentile("query_wall_ms_p50", wall, 0.5, 1e3, "untraced");
  out->SetPercentile("query_wall_ms_p90", wall, 0.9, 1e3, "untraced");
  out->SetPercentile("first_result_ms_p50", first, 0.5, 1e3, "untraced");
  out->SetPercentile("first_result_ms_p90", first, 0.9, 1e3, "untraced");
  uint64_t frames = 0;
  for (const QueryRecord& q : qs) frames += q.trace.final.samples;
  out->Set("frames_per_s", Ratio(static_cast<double>(frames), phase.wall_s),
           "untraced; input " + workload.InputSize(), qs.size());
  // The paper's metric over the fixed query prefix every run completes, so it
  // is exact for a seed however many more queries the time allowed.
  double sim = 0.0;
  const size_t prefix = std::min(workload.min_queries(), qs.size());
  for (size_t i = 0; i < prefix; ++i) sim += qs[i].trace.final.seconds;
  out->Set("sim_s_per_query", Ratio(sim, static_cast<double>(prefix)),
           "untraced; first " + std::to_string(prefix) + " queries", prefix);
  std::vector<double> setup;
  for (const SetupTiming& s : setups) setup.push_back(s.build_s + s.warmup_s);
  out->Set("setup_s", Median(setup), "median of set-up repetitions", setup.size());
  out->Set("peak_rss_mb", phase.prefix_peak_rss_mb,
           "VmHWM after the first " + std::to_string(prefix) + " queries");
}

std::string StageTableJson(const ex::stats::StageTimer* timer, const SpanLog& spans) {
  std::string out = "[";
  bool first = true;
  const auto row = [&](const std::string& name, const std::string& source, uint64_t count,
                       double total, double p50) {
    if (count == 0) return;  // Stages the workload never ran are left out.
    if (!first) out += ", ";
    first = false;
    out += "{\"stage\": " + Quote(name) + ", \"source\": " + Quote(source) +
           ", \"count\": " + std::to_string(count) + ", \"total_s\": " + Num(total) +
           ", \"p50_us\": " + Num(p50 * 1e6) + "}";
  };
  if (timer != nullptr) {
    for (size_t s = 0; s < ex::stats::kNumStages; ++s) {
      const auto stage = static_cast<ex::stats::Stage>(s);
      row(ex::stats::StageName(stage), "engine.stage_timer", timer->Count(stage),
          timer->TotalSeconds(stage), timer->ApproxQuantileSeconds(stage, 0.5));
    }
  }
  for (size_t l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    const std::vector<double> per_step = spans.PerStep(layer);
    row(LayerName(layer), "bench.spans", spans.Count(layer), spans.TotalSeconds(layer),
        Median(per_step));
  }
  return out + "]";
}

std::string MetricsJson(const MetricSet& set, const MetricDecl* decls, size_t n,
                        bool with_detail) {
  std::string out = "{";
  for (size_t i = 0; i < n; ++i) {
    const auto it = set.values().find(decls[i].name);
    const Value v = it != set.values().end() ? it->second
                                              : Value{0.0, "not exercised", 0};
    if (i > 0) out += ", ";
    out += Quote(decls[i].name) + ": {\"value\": " + Num(v.value) +
           ", \"unit\": " + Quote(decls[i].unit);
    if (with_detail) {
      out += ", \"source\": " + Quote(v.source);
      if (v.samples > 0) out += ", \"samples\": " + std::to_string(v.samples);
    }
    out += "}";
  }
  return out + "}";
}

void PrintMetrics(const MetricSet& set, const MetricDecl* decls, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const auto it = set.values().find(decls[i].name);
    if (it == set.values().end()) {
      std::printf("  %-30s %14s %-11s (not exercised)\n", decls[i].name, "0",
                  decls[i].unit);
      continue;
    }
    const Value& v = it->second;
    std::printf("  %-30s %14.6g %-11s %s", decls[i].name, v.value, decls[i].unit,
                v.source.c_str());
    if (v.samples > 0) std::printf(" (n=%zu)", v.samples);
    std::printf("\n");
  }
}

int Main(int argc, char** argv) {
  const double run_start = NowSeconds();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (solo_many_chunks, serve_coalesced, "
                 "repeat_reuse)\n", args.workload.c_str());
    return 2;
  }
  std::printf("context %s\n", ContextJson(args).c_str());
  std::fflush(stdout);

  std::vector<SetupTiming> setups;
  const double setup_start = NowSeconds();
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && NowSeconds() - setup_start >= kSetupBudgetS) break;
    setups.push_back(workload->Setup());
  }
  std::printf("input %s\n", workload->InputSize().c_str());

  // Phases end early only when the program is too slow for the budget: the
  // untraced phase gets under half of it when a traced replay follows, and
  // the rest leaves room for the output checks.
  const double untraced_deadline =
      run_start + kBudgetS * (args.trace ? 0.45 : 0.8);
  Phase untraced = workload->RunUntraced(args.seconds, untraced_deadline);
  // A phase the budget cut before the prefix ends has its peak read here.
  if (untraced.queries.size() < workload->min_queries()) untraced.NotePrefixRss();
  const std::vector<std::string> guards = workload->Guards(untraced);
  workload->CheckOutputs(&untraced);

  MetricSet end_to_end;
  MetricSet per_layer;
  Phase traced;
  if (args.trace) {
    // The replay covers the fixed query prefix, so per-layer counts do not
    // depend on how far past it a fast machine got.
    const size_t planned = std::min(untraced.queries.size(), workload->min_queries());
    traced = workload->RunTraced(planned, run_start + kBudgetS * 0.9);
    size_t mismatched = 0;
    for (size_t i = 0; i < traced.queries.size(); ++i) {
      QueryRecord& q = untraced.queries[i];
      if (TraceDigest::Of(traced.queries[i].trace) != TraceDigest::Of(q.trace)) {
        Fail(&q, "traced trace differs from the untraced trace");
        ++mismatched;
      }
    }
    std::printf("traced replay: %zu of %zu planned queries%s; %zu traces differ\n",
                traced.queries.size(), planned,
                traced.queries.size() < planned ? " (cut at the time budget)" : "",
                mismatched);
    workload->LayerMetrics(traced, &per_layer);
    std::vector<double> setup_build;
    std::vector<double> setup_warmup;
    for (const SetupTiming& s : setups) {
      setup_build.push_back(s.build_s);
      setup_warmup.push_back(s.warmup_s);
    }
    per_layer.Set("datasets.build_s", Median(setup_build), "bench.setup",
                  setups.size());
    per_layer.Set("engine.warmup_s", Median(setup_warmup), "bench.setup",
                  setups.size());
    double traced_wall = 0.0;
    double untraced_wall = 0.0;
    std::vector<double> paired;
    for (size_t i = 0; i < untraced.queries.size() && i < traced.queries.size(); ++i) {
      traced_wall += traced.queries[i].wall_s;
      untraced_wall += untraced.queries[i].wall_s;
      paired.push_back(Ratio(traced.queries[i].wall_s, untraced.queries[i].wall_s));
    }
    per_layer.Set("stats.trace_overhead_frac", Ratio(traced_wall, untraced_wall) - 1.0,
                  "traced wall / untraced wall - 1", paired.size());
    const auto geo = Geomean(paired);
    std::printf("trace overhead: total-wall ratio %.4f, per-query geomean %.4f\n",
                Ratio(traced_wall, untraced_wall), geo.value_or(0.0));
  }

  EndToEndMetrics(*workload, untraced, setups, &end_to_end);

  size_t failed = 0;
  for (const QueryRecord& q : untraced.queries) {
    if (q.failure.empty()) continue;
    if (failed < 5) std::printf("FAILED query: %s\n", q.failure.c_str());
    ++failed;
  }
  for (const std::string& g : guards) {
    std::fprintf(stderr, "LAYER GUARD FAILED (%s): %s\n", args.workload.c_str(),
                 g.c_str());
  }
  std::vector<std::string> errors = end_to_end.errors();
  errors.insert(errors.end(), per_layer.errors().begin(), per_layer.errors().end());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "METRIC ERROR: %s\n", e.c_str());
  }

  const size_t attempted = untraced.queries.size();
  const double failed_frac =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  const bool correct = failed == 0 && guards.empty() && errors.empty();
  std::printf("queries: %zu attempted, %zu failed (failed_frac %.4f), guards %s\n",
              attempted, failed, failed_frac, guards.empty() ? "pass" : "FAIL");
  for (const auto& [name, value] : workload->notes()) {
    std::printf("note %s = %.6g\n", name.c_str(), value);
  }
  std::printf("end-to-end (untraced):\n");
  PrintMetrics(end_to_end, kEndToEnd, std::size(kEndToEnd));
  if (args.trace) {
    std::printf("per-layer (traced):\n");
    PrintMetrics(per_layer, kPerLayer, std::size(kPerLayer));
  }

  if (!args.report_path.empty()) {
    std::ofstream report(args.report_path, std::ios::trunc);
    report << "{\n  \"context\": " << ContextJson(args) << ",\n  \"input\": "
           << Quote(workload->InputSize()) << ",\n  \"attempted\": " << attempted
           << ",\n  \"failed\": " << failed
           << ",\n  \"failed_frac\": " << Num(failed_frac)
           << ",\n  \"guards_passed\": " << (guards.empty() ? "true" : "false");
    if (args.trace) report << ",\n  \"traced_queries\": " << traced.queries.size();
    for (const auto& [name, value] : workload->notes()) {
      report << ",\n  " << Quote(name) << ": " << Num(value);
    }
    report << ",\n  \"end_to_end\": "
           << MetricsJson(end_to_end, kEndToEnd, std::size(kEndToEnd), true);
    if (args.trace) {
      report << ",\n  \"per_layer\": "
             << MetricsJson(per_layer, kPerLayer, std::size(kPerLayer), true)
             << ",\n  \"stages\": "
             << StageTableJson(workload->traced_stage_timer(), traced.spans);
    }
    report << "\n}\n";
    if (!report) std::fprintf(stderr, "could not write %s\n", args.report_path.c_str());
  }

  const std::string metrics =
      args.trace ? MetricsJson(per_layer, kPerLayer, std::size(kPerLayer), false)
                 : MetricsJson(end_to_end, kEndToEnd, std::size(kEndToEnd), false);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
