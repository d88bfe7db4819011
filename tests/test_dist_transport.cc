// Distributed shard transport suite (`dist` + `concurrency` labels).
//
// The load-bearing property: moving the shared detect stage behind a
// transport — wire-serialized batches, per-shard runner threads, reordered
// completions, injected latency and failures, retry + requeue onto surviving
// shards — changes wall-clock and wire traffic only. Every session's trace
// must stay bit-identical to its solo in-process run, for every method,
// shard count, and flush policy; and a fleet that dies past recovery must
// surface a non-OK Status from RunConcurrent instead of spinning or
// returning truncated traces. CI re-runs the suite under ASan and TSan (the
// runner threads, byte queues, and latency-aware flushes are threaded
// paths).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "engine/search_engine.h"
#include "query/detector_service.h"
#include "query/socket_transport.h"
#include "query/transport.h"
#include "query/wire.h"
#include "scene/generator.h"
#include "serve/serving.h"
#include "testutil/shardd_harness.h"

namespace exsample {
namespace engine {
namespace {

struct DistFixture {
  video::VideoRepository repo;
  video::ShardedRepository sharded;
  video::Chunking chunking;
  scene::GroundTruth truth;

  DistFixture(video::VideoRepository r, video::ShardedRepository s,
              video::Chunking c, scene::GroundTruth t)
      : repo(std::move(r)),
        sharded(std::move(s)),
        chunking(std::move(c)),
        truth(std::move(t)) {}

  static std::unique_ptr<DistFixture> Make(size_t num_shards, uint64_t seed = 5) {
    common::Rng rng(seed);
    const uint64_t frames = 80000;
    auto repo = video::VideoRepository::UniformClips(8, frames / 8);
    auto sharded = video::ShardedRepository::ShardByClips(repo, num_shards).value();
    auto chunking = video::MakeFixedCountChunks(frames, 16).value();
    scene::SceneSpec spec;
    spec.total_frames = frames;
    scene::ClassPopulationSpec abundant;
    abundant.class_id = 0;
    abundant.instance_count = 100;
    abundant.duration.mean_frames = 150.0;
    abundant.placement = scene::PlacementSpec::NormalCenter(0.3);
    spec.classes.push_back(abundant);
    scene::ClassPopulationSpec rare;
    rare.class_id = 1;
    rare.instance_count = 8;
    rare.duration.mean_frames = 80.0;
    spec.classes.push_back(rare);
    auto truth = std::move(scene::GenerateScene(spec, &chunking, rng)).value();
    return std::make_unique<DistFixture>(std::move(repo), std::move(sharded),
                                         std::move(chunking), std::move(truth));
  }
};

EngineConfig OracleConfig() {
  EngineConfig config;
  config.discriminator = EngineConfig::DiscriminatorKind::kOracle;
  config.detector = detect::DetectorOptions::Perfect(0);
  return config;
}

SearchEngine MakeEngine(DistFixture& fx, size_t num_shards, EngineConfig config) {
  if (num_shards > 1) {
    return SearchEngine(&fx.sharded, &fx.chunking, &fx.truth, config);
  }
  return SearchEngine(&fx.repo, &fx.chunking, &fx.truth, config);
}

void ExpectSameTrace(const query::QueryTrace& a, const query::QueryTrace& b,
                     const std::string& what) {
  EXPECT_TRUE(query::TracesBitIdentical(a, b)) << what;
  EXPECT_EQ(a.final.samples, b.final.samples) << what;
  EXPECT_EQ(a.final.seconds, b.final.seconds) << what;
  EXPECT_EQ(a.final.reported_results, b.final.reported_results) << what;
  EXPECT_EQ(a.final.true_distinct, b.final.true_distinct) << what;
}

constexpr Method kAllMethods[] = {
    Method::kExSample, Method::kExSampleAdaptive, Method::kRandom,
    Method::kRandomPlus, Method::kSequential,     Method::kProxyGuided,
    Method::kHybrid};

std::vector<QuerySpec> AllMethodSpecs(uint64_t limit) {
  std::vector<QuerySpec> specs;
  for (const Method method : kAllMethods) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = limit;
    spec.options.method = method;
    spec.options.batch_size = 4;
    specs.push_back(spec);
  }
  return specs;
}

/// Loopback engine config with everything hostile turned on: wire latency,
/// completion reordering, a latency-aware flush deadline, and (optionally)
/// transient failures forcing retries.
EngineConfig LoopbackConfig(double failure_rate = 0.0) {
  EngineConfig config = OracleConfig();
  config.num_threads = 2;
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.transport = TransportKind::kLoopback;
  config.flush_deadline_seconds = 0.0005;
  config.loopback.latency_seconds = 0.00005;
  config.loopback.reorder_jitter_seconds = 0.0002;
  config.loopback.failure_rate = failure_rate;
  return config;
}

// --- Bit-identity: loopback transport vs solo in-process runs ---------------

class LoopbackEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LoopbackEquivalenceTest, AllMethodsMatchSoloRuns) {
  const size_t num_shards = GetParam();
  auto fx = DistFixture::Make(num_shards);

  SearchEngine loopback =
      MakeEngine(*fx, num_shards, LoopbackConfig(/*failure_rate=*/0.05));
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = loopback.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());

  // The wire path really ran: batches crossed as serialized bytes, and the
  // transient failure injection exercised retries.
  ASSERT_NE(loopback.shard_transport(), nullptr);
  const query::TransportStats wire = loopback.shard_transport()->Stats();
  EXPECT_GT(wire.requests, 0u);
  EXPECT_GT(wire.bytes_sent, 0u);
  EXPECT_GT(wire.bytes_received, 0u);
  const query::DetectorServiceStats& stats = loopback.detector_service()->stats();
  // Send accounting is exact: every transport send is a first send
  // (wire_batches, including proactive reroutes), a retry resend, or a
  // failure-driven requeue resend.
  EXPECT_EQ(wire.requests,
            stats.wire_batches + stats.wire_retries + stats.wire_requeues);
  EXPECT_GT(stats.wire_retries, 0u);
  EXPECT_GT(stats.wire_charged_seconds, 0.0);
  // Sessions withdraw their wire registrations when they die (the directory
  // holds raw detector pointers): after the workload the directory is empty.
  EXPECT_EQ(loopback.detector_service()->directory().NumSessions(), 0u);
  EXPECT_TRUE(loopback.detector_service()->transport_status().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("loopback vs solo: ") +
                        MethodName(specs[i].options.method) + " at " +
                        std::to_string(num_shards) + " shards");
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LoopbackEquivalenceTest,
                         ::testing::Values(1, 2, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

// --- Single-shard failure with requeue --------------------------------------

TEST(DistTransportTest, ShardFailureRequeuesAndPreservesTraces) {
  const size_t num_shards = 5;
  auto fx = DistFixture::Make(num_shards);

  EngineConfig config = LoopbackConfig();
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 2;       // Dies mid-workload...
  config.loopback.fail_after_requests = 3;  // ...after serving 3 batches.
  SearchEngine failing = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = failing.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  // The failure actually happened and was recovered from: the dead runner's
  // batches exhausted their retries and requeued onto survivors — with
  // `origin_shard` (and therefore detections and charged seconds) unchanged.
  const query::DetectorServiceStats& stats = failing.detector_service()->stats();
  EXPECT_GE(stats.wire_retries, 1u);
  EXPECT_GE(stats.wire_requeues, 1u);
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_TRUE(failing.detector_service()->transport_status().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("failed-shard requeue: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(DistTransportTest, RequeuedBatchesGetAFreshRetryBudgetOnTheSurvivor) {
  // Regression: a batch requeued off a dead shard used to carry its
  // exhausted attempt counter to the surviving runner, so the survivor's
  // *first* transient failure marked it permanently down — one blip away
  // from a spurious whole-fleet failure. With a per-runner budget the
  // survivor absorbs transients like any healthy shard and the workload
  // completes.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);

  // A hostile survivor: transient failures land on requeued and rerouted
  // batches alike, and the deep per-runner budget absorbs them (exhaustion
  // would need 9 consecutive deterministic-coin failures on one batch).
  // The scripted-transport test below pins the budget-reset semantics
  // exactly; this one proves the full engine path survives the combination.
  EngineConfig config = LoopbackConfig(/*failure_rate=*/0.5);
  config.transport_max_retries = 8;
  config.loopback.fail_shard = 0;          // Dead on arrival: every batch
  config.loopback.fail_after_requests = 0; // to shard 0 must requeue.
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = engine.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_EQ(stats.shards_down, 1u) << "only the dead shard may be marked down";
  EXPECT_GT(stats.wire_requeues, 0u);
  EXPECT_GT(stats.wire_retries, 0u);  // Transients on the survivor retried.
  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("requeue with fresh budget: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(DistTransportTest, SingleRunnerSurvivesTransientsThatExhaustABatch) {
  // One shard, 5% transient failures, one retry per batch: now and then a
  // batch fails twice in a row. That used to mark the only runner down and
  // fail the whole service; a runner goes down only after repeated
  // exhausted batches with no success between, so the batch is resent to
  // the same runner and the workload completes bit-identical.
  auto fx = DistFixture::Make(/*num_shards=*/1);
  EngineConfig config = LoopbackConfig(/*failure_rate=*/0.05);
  config.transport_max_retries = 1;
  SearchEngine engine = MakeEngine(*fx, 1, config);
  SearchEngine reference = MakeEngine(*fx, 1, OracleConfig());

  // Each round's batches draw fresh failure coins (new wire sequence
  // numbers); keep going until some batch exhausted its budget.
  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  std::vector<query::QueryTrace> solo;
  for (const QuerySpec& spec : specs) {
    auto run = reference.FindDistinct(spec.class_id, spec.limit, spec.options);
    ASSERT_TRUE(run.ok());
    solo.push_back(std::move(run).value());
  }
  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  for (int round = 0; round < 100 && stats.wire_requeues == 0; ++round) {
    auto concurrent = engine.RunConcurrent(specs);
    ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectSameTrace(solo[i], concurrent.value()[i],
                      std::string("single runner with transients: ") +
                          MethodName(specs[i].options.method));
    }
  }
  EXPECT_GE(stats.wire_requeues, 1u) << "no batch exhausted its retries";
  EXPECT_EQ(stats.shards_down, 0u);
  EXPECT_TRUE(engine.detector_service()->transport_status().ok());
}

// --- Permanent failure surfaces a Status ------------------------------------

TEST(DistTransportTest, AllRunnersDownSurfacesStatusFromRunConcurrent) {
  auto fx = DistFixture::Make(/*num_shards=*/1);

  EngineConfig config = LoopbackConfig();
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 0;  // The only runner: nothing survives.
  config.loopback.fail_after_requests = 2;
  SearchEngine engine = MakeEngine(*fx, 1, config);

  std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  size_t observed_steps = 0;
  auto result = engine.RunConcurrent(
      specs, [&](size_t, const QuerySession&) { ++observed_steps; });
  ASSERT_FALSE(result.ok()) << "a dead fleet must not return traces";
  EXPECT_EQ(result.status().code(), common::StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("shard runner"), std::string::npos)
      << result.status().ToString();
  // The service is sticky-failed with nothing left pending (no dangling
  // spans into the destroyed sessions).
  EXPECT_FALSE(engine.detector_service()->transport_status().ok());
  EXPECT_EQ(engine.detector_service()->PendingFrames(), 0u);
  EXPECT_GT(observed_steps, 0u);  // The workload made progress before dying.
}

TEST(DistTransportTest, RepositoryMismatchSurfacesStatus) {
  auto fx = DistFixture::Make(/*num_shards=*/2);

  EngineConfig config = LoopbackConfig();
  // The runners expect a different repository than the coordinator queries —
  // a mis-deployment. Non-retryable, so every runner goes down immediately.
  config.loopback.expected_fingerprint = 0xdeadbeefcafef00dull;
  SearchEngine engine = MakeEngine(*fx, 2, config);

  auto result = engine.RunConcurrent(AllMethodSpecs(/*limit=*/5));
  ASSERT_FALSE(result.ok());
  // A mis-deployment is reported by name — not buried under an
  // availability error after pointlessly requeuing through (and marking
  // down) every healthy runner.
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(engine.detector_service()->stats().wire_retries, 0u)
      << "a repository mismatch must not be retried";
  EXPECT_EQ(engine.detector_service()->stats().shards_down, 0u)
      << "healthy runners must not be blamed for a deployment mismatch";
}

// --- Full pipeline: decode + prefetch + per-shard pools over loopback -------

TEST(DistTransportTest, FullPipelineLoopbackMatchesLocal) {
  const size_t num_shards = 5;
  auto fx = DistFixture::Make(num_shards);

  EngineConfig base = OracleConfig();
  base.num_threads = 2;
  base.threads_per_shard = 2;  // Loopback runners drive per-shard pools.
  base.simulate_decode = true;
  base.prefetch_depth = 4;
  base.io_threads = 2;
  base.coalesce_detect = true;
  base.device_batch = 16;

  EngineConfig loopback_config = base;
  loopback_config.transport = TransportKind::kLoopback;
  loopback_config.flush_deadline_seconds = 0.0005;
  loopback_config.loopback.latency_seconds = 0.00005;
  loopback_config.loopback.reorder_jitter_seconds = 0.0002;
  loopback_config.loopback.failure_rate = 0.05;

  SearchEngine loopback = MakeEngine(*fx, num_shards, loopback_config);
  SearchEngine local = MakeEngine(*fx, num_shards, base);

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/8);
  auto over_wire = loopback.RunConcurrent(specs);
  auto in_process = local.RunConcurrent(specs);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectSameTrace(in_process.value()[i], over_wire.value()[i],
                    std::string("full pipeline loopback vs local: ") +
                        MethodName(specs[i].options.method));
  }
  EXPECT_GT(loopback.shard_transport()->Stats().bytes_sent, 0u);
}

// --- Pipelined rounds: two half-waves in flight ------------------------------
//
// With an asynchronous transport and a decode wall longer than the wire round
// trip, RunConcurrent splits each round into two half-waves: one decodes
// while the other is on the wire, and the second half-wave of a round stays
// on the wire while the next round is planned and begun. These tests run
// that schedule over loopback with simulated, prefetched decode and check it
// never changes a trace, recovers from failures, fails cleanly, and stays
// off where it cannot pay.

/// Loopback with simulated decode that sleeps: each read takes long enough
/// (~0.1 ms per frame) that a round's decode wall exceeds the wire round
/// trip, so rounds of two or more sessions split.
EngineConfig PipelinedConfig() {
  EngineConfig config = OracleConfig();
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.transport = TransportKind::kLoopback;
  config.loopback.latency_seconds = 0.0001;
  config.loopback.reorder_jitter_seconds = 0.0001;
  config.simulate_decode = true;
  config.decode_cost.wall_clock_scale = 0.004;
  config.prefetch_depth = 4;
  config.io_threads = 2;
  return config;
}

/// The solo reference for a `PipelinedConfig` engine: in process, one
/// session at a time, the same decode pricing without sleeping.
EngineConfig PipelinedReferenceConfig() {
  EngineConfig config = PipelinedConfig();
  config.coalesce_detect = false;
  config.transport = TransportKind::kLocal;
  config.prefetch_depth = 0;
  config.io_threads = 0;
  config.decode_cost.wall_clock_scale = 0.0;
  return config;
}

/// `sessions` queries of one method whose limits differ, so sessions finish
/// at different rounds and the rounds shrink (and stop splitting) over time.
std::vector<QuerySpec> StaggeredSpecs(Method method, size_t sessions) {
  std::vector<QuerySpec> specs;
  for (size_t k = 0; k < sessions; ++k) {
    QuerySpec spec;
    spec.class_id = 0;
    spec.limit = 4 + 2 * k;
    spec.options.method = method;
    spec.options.batch_size = 4;
    specs.push_back(spec);
  }
  return specs;
}

/// Counts the scheduler rounds of a fair RunConcurrent from its observer:
/// within a round steps finish in ascending session order, so a round
/// begins wherever the finished index does not increase.
struct RoundCounter {
  size_t rounds = 0;
  size_t last = 0;
  bool any = false;

  void Step(size_t idx) {
    if (!any || idx <= last) ++rounds;
    last = idx;
    any = true;
  }
};

void ExpectMatchesSolo(SearchEngine& reference, const std::vector<QuerySpec>& specs,
                       const std::vector<query::QueryTrace>& traces,
                       const std::string& what) {
  ASSERT_EQ(traces.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), traces[i],
                    what + ": " + MethodName(specs[i].options.method) +
                        " session " + std::to_string(i));
  }
}

class PipelinedRoundsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelinedRoundsTest, AllMethodsAndSessionCountsMatchSoloRuns) {
  const size_t num_shards = GetParam();
  auto fx = DistFixture::Make(num_shards);
  SearchEngine reference = MakeEngine(*fx, num_shards, PipelinedReferenceConfig());

  uint64_t split_runs = 0;
  for (const size_t sessions : {1, 2, 3, 8}) {
    for (const Method method : kAllMethods) {
      SearchEngine engine = MakeEngine(*fx, num_shards, PipelinedConfig());
      const std::vector<QuerySpec> specs = StaggeredSpecs(method, sessions);
      RoundCounter rounds;
      auto result = engine.RunConcurrent(
          specs, [&](size_t idx, const QuerySession&) { rounds.Step(idx); });
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string what = std::to_string(num_shards) + " shards, " +
                               std::to_string(sessions) + " sessions";
      ExpectMatchesSolo(reference, specs, result.value(), what);

      const query::DetectorService* service = engine.detector_service();
      const uint64_t flushes = service->stats().flushes;
      // A split round ships two flushes, an unsplit one a single flush.
      EXPECT_GE(flushes, rounds.rounds) << what;
      EXPECT_LE(flushes, 2 * rounds.rounds) << what;
      // A single session never has anyone to overlap with.
      if (sessions == 1) {
        EXPECT_EQ(flushes, rounds.rounds) << what;
      }
      if (flushes > rounds.rounds) ++split_runs;
      EXPECT_EQ(service->FlushesInFlight(), 0u) << what;
      EXPECT_EQ(service->directory().NumSessions(), 0u) << what;
      EXPECT_EQ(engine.shard_transport()->InFlight(), 0u) << what;
    }
  }
  // Decode dominates the wire here, so multi-session rounds do split.
  EXPECT_GT(split_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, PipelinedRoundsTest,
                         ::testing::Values(1, 2, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

TEST(PipelinedDriverTest, FailuresWithTwoHalfWavesInFlightRecover) {
  const size_t num_shards = 5;
  auto fx = DistFixture::Make(num_shards);
  EngineConfig config = PipelinedConfig();
  config.loopback.failure_rate = 0.05;
  // Deep enough that transients never exhaust a live runner (split timing
  // decides the wire sequence numbers the failure coins are keyed by).
  config.transport_max_retries = 3;
  config.loopback.fail_shard = 3;  // Dies after a few split rounds.
  config.loopback.fail_after_requests = 4;
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, PipelinedReferenceConfig());

  std::vector<QuerySpec> specs;
  for (const Method method : kAllMethods) {
    for (QuerySpec spec : StaggeredSpecs(method, 2)) specs.push_back(spec);
  }
  // Evidence of overlap: steps finish while another flush is still on the
  // wire.
  size_t max_outstanding = 0;
  RoundCounter rounds;
  auto result = engine.RunConcurrent(specs, [&](size_t idx, const QuerySession&) {
    rounds.Step(idx);
    max_outstanding =
        std::max(max_outstanding, engine.detector_service()->FlushesInFlight());
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesSolo(reference, specs, result.value(), "failures while pipelined");

  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_GT(stats.flushes, rounds.rounds) << "rounds must split";
  EXPECT_GE(max_outstanding, 1u);
  EXPECT_GT(stats.wire_retries, 0u);
  EXPECT_GT(stats.wire_requeues, 0u);
  EXPECT_EQ(stats.shards_down, 1u);
  const query::TransportStats wire = engine.shard_transport()->Stats();
  EXPECT_EQ(wire.requests,
            stats.wire_batches + stats.wire_retries + stats.wire_requeues);
  EXPECT_TRUE(engine.detector_service()->transport_status().ok());
}

TEST(PipelinedDriverTest, AllRunnersDownWithAHalfWaveInFlightFailsCleanly) {
  auto fx = DistFixture::Make(/*num_shards=*/1);
  EngineConfig config = PipelinedConfig();
  config.transport_max_retries = 1;
  config.loopback.fail_shard = 0;  // The only runner: nothing survives.
  config.loopback.fail_after_requests = 10;
  SearchEngine engine = MakeEngine(*fx, 1, config);

  RoundCounter rounds;
  auto result = engine.RunConcurrent(
      StaggeredSpecs(Method::kRandom, 8),
      [&](size_t idx, const QuerySession&) { rounds.Step(idx); });
  ASSERT_FALSE(result.ok()) << "a dead fleet must not return traces";
  EXPECT_EQ(result.status().code(), common::StatusCode::kInternal);
  const query::DetectorService* service = engine.detector_service();
  // The runner died after rounds had started splitting (the failing round's
  // own flush finishes no step, hence the + 1): a half-wave was on the wire
  // when it did.
  EXPECT_GT(service->stats().flushes, rounds.rounds + 1);
  EXPECT_FALSE(service->transport_status().ok());
  EXPECT_EQ(service->PendingFrames(), 0u);
  EXPECT_EQ(service->FlushesInFlight(), 0u);
  EXPECT_EQ(engine.shard_transport()->InFlight(), 0u);
  // Every session withdrew its registration: no id resolves to a detector
  // that died with the workload.
  EXPECT_EQ(service->directory().NumSessions(), 0u);
}

TEST(PipelinedDriverTest, NeverSplitsWhereOverlapCannotPay) {
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  SearchEngine reference = MakeEngine(*fx, num_shards, PipelinedReferenceConfig());

  // A local transport executes batches inline: nothing to overlap with.
  EngineConfig local = PipelinedConfig();
  local.transport = TransportKind::kLocal;
  // Loopback without decode: no decode wall to hide the wire behind.
  EngineConfig decode_free = OracleConfig();
  decode_free.coalesce_detect = true;
  decode_free.device_batch = 16;
  decode_free.transport = TransportKind::kLoopback;
  decode_free.loopback.latency_seconds = 0.0001;

  const std::vector<QuerySpec> specs = StaggeredSpecs(Method::kExSample, 8);
  for (const EngineConfig& config : {local, decode_free}) {
    SearchEngine engine = MakeEngine(*fx, num_shards, config);
    RoundCounter rounds;
    auto result = engine.RunConcurrent(
        specs, [&](size_t idx, const QuerySession&) { rounds.Step(idx); });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(engine.detector_service()->stats().flushes, rounds.rounds)
        << engine.shard_transport()->name();
    if (config.simulate_decode) {
      ExpectMatchesSolo(reference, specs, result.value(), "local transport");
    }
  }
}

TEST(PipelinedDriverTest, TenantServerShedsOnlyWithNothingInFlight) {
  auto fx = DistFixture::Make(/*num_shards=*/2);
  EngineConfig config = PipelinedConfig();
  config.device_batch = 8;
  SearchEngine engine = MakeEngine(*fx, 2, config);

  // Shedding asserts that no step is in flight (`TenantServer` settles every
  // round before it plans, sheds or admits); a saturating best-effort flood
  // exercises it over the same transport and decode the pipelined driver
  // uses.
  serve::ServeOptions options;
  options.admission.saturation_pending_frames = 12.0;
  options.admission.shed_over_factor = 1.5;
  serve::TenantServer server(&engine, options);
  serve::TenantSpec user;
  user.id = "user";
  user.weight = 4.0;
  serve::TenantSpec flood;
  flood.id = "flood";
  flood.slo = serve::SloClass::kBestEffort;
  ASSERT_TRUE(server.AddTenant(user).ok());
  ASSERT_TRUE(server.AddTenant(flood).ok());

  std::vector<serve::TenantQuery> queries;
  serve::TenantQuery interactive;
  interactive.tenant = "user";
  interactive.spec = StaggeredSpecs(Method::kExSample, 1)[0];
  queries.push_back(interactive);
  for (size_t i = 0; i < 8; ++i) {
    serve::TenantQuery q;
    q.tenant = "flood";
    q.spec = StaggeredSpecs(Method::kRandom, 1)[0];
    q.spec.limit = 200;
    q.spec.options.batch_size = 8;
    q.spec.options.max_samples = 2000;
    queries.push_back(q);
  }
  auto outcomes = server.Serve(queries);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  EXPECT_EQ(outcomes.value()[0].kind, serve::OutcomeKind::kCompleted);
  EXPECT_GT(server.tenants().usage(1).shed, 0u);
  EXPECT_EQ(engine.detector_service()->FlushesInFlight(), 0u);
}

// --- DetectorService flush policies (unit level) ----------------------------

struct ServiceFixture {
  std::unique_ptr<DistFixture> fx = DistFixture::Make(1);
  detect::SimulatedDetector detector{&fx->truth,
                                     detect::DetectorOptions::Perfect(0)};

  query::DetectorService::DetectRequest Request(
      const std::vector<video::FrameId>& frames, uint64_t session_id = 1) {
    query::DetectorService::DetectRequest request;
    request.session_id = session_id;
    request.frames = common::Span<const video::FrameId>(frames.data(), frames.size());
    request.detector = &detector;
    return request;
  }

  void ExpectDirectDetections(const std::vector<video::FrameId>& frames,
                              const std::vector<detect::Detections>& results) {
    ASSERT_EQ(results.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      const detect::Detections direct = detector.Detect(frames[i]);
      ASSERT_EQ(results[i].size(), direct.size()) << "frame " << frames[i];
      for (size_t j = 0; j < direct.size(); ++j) {
        EXPECT_EQ(results[i][j].box, direct[j].box);
        EXPECT_EQ(results[i][j].source_instance, direct[j].source_instance);
      }
    }
  }
};

TEST(FlushPolicyTest, FillTriggerShipsFullWireBatches) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 4;
  options.flush_policy = query::FlushPolicy::kLatencyAware;
  query::LocalTransport transport(1);
  options.transport = &transport;
  query::DetectorService service(options, 1);

  // A full wire batch ships at submit, without any barrier flush.
  const std::vector<video::FrameId> full = {10, 20, 30, 40};
  const auto full_ticket = service.Submit(fixture.Request(full));
  EXPECT_TRUE(service.Ready(full_ticket));
  EXPECT_EQ(service.stats().fill_flushes, 1u);
  EXPECT_EQ(service.PendingFrames(), 0u);
  fixture.ExpectDirectDetections(full, service.Take(full_ticket));

  // A partial tail keeps waiting for the barrier.
  const std::vector<video::FrameId> partial = {50, 60};
  const auto partial_ticket = service.Submit(fixture.Request(partial));
  EXPECT_FALSE(service.Ready(partial_ticket));
  EXPECT_EQ(service.PendingFrames(), 2u);
  service.Flush();
  ASSERT_TRUE(service.Ready(partial_ticket));
  fixture.ExpectDirectDetections(partial, service.Take(partial_ticket));
  EXPECT_EQ(service.TicketLatencies().size(), 2u);
}

TEST(FlushPolicyTest, FillTriggerLeavesThePartialTailQueued) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 4;
  options.flush_policy = query::FlushPolicy::kLatencyAware;
  query::LocalTransport transport(1);
  options.transport = &transport;
  query::DetectorService service(options, 1);

  // Six frames: one full slice ships, two frames stay queued — the ticket
  // is not ready until its last frame is detected.
  const std::vector<video::FrameId> frames = {1, 2, 3, 4, 5, 6};
  const auto ticket = service.Submit(fixture.Request(frames));
  EXPECT_FALSE(service.Ready(ticket));
  EXPECT_EQ(service.stats().fill_flushes, 1u);
  EXPECT_EQ(service.PendingFrames(), 2u);
  service.Flush();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
}

TEST(FlushPolicyTest, DeadlineTriggerShipsStaleQueues) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 64;  // Never fills.
  options.flush_policy = query::FlushPolicy::kLatencyAware;
  options.flush_deadline_seconds = 0.0002;
  query::LocalTransport transport(1);
  options.transport = &transport;
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {7, 8};
  const auto ticket = service.Submit(fixture.Request(frames));
  EXPECT_FALSE(service.Ready(ticket));
  service.Poll();  // Deadline almost surely not hit yet; either way:
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Poll();
  ASSERT_TRUE(service.Ready(ticket));
  EXPECT_GE(service.stats().deadline_flushes, 1u);
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
}

TEST(FlushPolicyTest, BarrierPolicyNeverSelfFlushes) {
  ServiceFixture fixture;
  query::DetectorServiceOptions options;
  options.device_batch = 2;  // Submits exceed a wire batch immediately.
  query::LocalTransport transport(1);
  options.transport = &transport;
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {1, 2, 3, 4, 5};
  const auto ticket = service.Submit(fixture.Request(frames));
  service.Poll();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  service.Poll();
  EXPECT_FALSE(service.Ready(ticket));
  EXPECT_EQ(service.stats().fill_flushes, 0u);
  EXPECT_EQ(service.stats().deadline_flushes, 0u);
  service.Flush();
  EXPECT_TRUE(service.Ready(ticket));
  (void)service.Take(ticket);
}

// --- Transports at the service level ----------------------------------------

TEST(DistTransportTest, LocalTransportMatchesDirectDetections) {
  ServiceFixture fixture;
  const std::vector<video::FrameId> frames = {100, 200, 300, 400, 500};

  query::LocalTransport transport(1);
  query::DetectorServiceOptions options;
  options.device_batch = 2;
  options.transport = &transport;
  query::DetectorService service(options, 1);
  const auto ticket = service.Submit(fixture.Request(frames));
  service.Flush();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  EXPECT_EQ(transport.Stats().requests, 3u);  // ceil(5 / 2) slices.
  EXPECT_EQ(transport.Stats().bytes_sent, 0u);  // Local never serializes.
}

TEST(DistTransportTest, LoopbackServiceRoundTripsOverBytes) {
  ServiceFixture fixture;
  query::LoopbackTransportOptions loopback;
  loopback.reorder_jitter_seconds = 0.0001;
  query::LoopbackTransport transport(1, {}, loopback);
  query::DetectorServiceOptions options;
  options.device_batch = 3;
  options.transport = &transport;
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {11, 22, 33, 44, 55, 66, 77};
  const auto ticket = service.Submit(fixture.Request(frames));
  service.Flush();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  EXPECT_EQ(transport.Stats().requests, 3u);  // ceil(7 / 3) slices.
  EXPECT_GT(transport.Stats().bytes_sent, 0u);
  EXPECT_GT(transport.Stats().bytes_received, 0u);
  EXPECT_EQ(transport.InFlight(), 0u);
}

/// Scripted transport: shard 0's runner is dead (every batch fails), shard
/// 1's runner fails each wire batch exactly once and then serves it. The
/// sequence of outcomes is fixed, so the retry-budget semantics are pinned
/// without probabilistic injection.
class ScriptedTransport : public query::ShardTransport {
 public:
  const char* name() const override { return "scripted"; }
  void BindLocalResolver(const query::SessionResolver* resolver) override {
    resolver_ = resolver;
  }
  common::Status Send(uint32_t runner_shard,
                      const query::DetectRequestMsg& request) override {
    query::DetectResponseMsg response;
    response.wire_seq = request.wire_seq;
    response.origin_shard = request.origin_shard;
    response.attempt = request.attempt;
    if (runner_shard == 0 && shard0_sends_to_revival_ > 0 &&
        --shard0_sends_to_revival_ == 0) {
      shard0_dead_ = false;
    }
    if (runner_shard == 0 ? shard0_dead_ : failed_once_.insert(request.wire_seq).second) {
      response.status = query::WireStatus::kUnavailable;
    } else {
      response = query::ExecuteWireRequest(request, *resolver_, nullptr);
    }
    completed_.push_back(query::WireCompletion{std::move(response),
                                               query::WireClockSeconds()});
    return common::Status::OK();
  }
  common::Result<query::WireCompletion> Receive() override {
    if (completed_.empty()) {
      return common::Status::FailedPrecondition("no wire batch in flight");
    }
    query::WireCompletion completion = std::move(completed_.front());
    completed_.erase(completed_.begin());
    return completion;
  }
  size_t InFlight() const override { return completed_.size(); }
  query::TransportStats Stats() const override { return stats_; }
  /// Shard 0 serves from now on.
  void ReviveShard0() { shard0_dead_ = false; }
  /// Shard 0 serves from its `sends`-th next batch on.
  void ReviveShard0After(uint64_t sends) { shard0_sends_to_revival_ = sends; }

 private:
  bool shard0_dead_ = true;
  uint64_t shard0_sends_to_revival_ = 0;  // 0: no revival scheduled.
  const query::SessionResolver* resolver_ = nullptr;
  std::vector<query::WireCompletion> completed_;
  std::set<uint64_t> failed_once_;
  query::TransportStats stats_;
};

TEST(DistTransportTest, RetryBudgetResetsPerRunnerDeterministic) {
  // Regression (deterministic): a batch exhausts its retries on dead shard
  // 0 and requeues to shard 1, which fails it exactly once more. The
  // per-runner budget must absorb that single failure; carrying the
  // exhausted counter across the requeue — the old behavior — would mark
  // the survivor down and sticky-fail the whole service.
  ServiceFixture fixture;
  ScriptedTransport transport;
  query::DetectorServiceOptions options;
  options.device_batch = 8;
  options.max_retries = 2;
  options.transport = &transport;
  query::DetectorService service(options, 2);

  const std::vector<video::FrameId> frames = {10, 20, 30};
  const std::vector<uint32_t> shards = {0, 0, 1};  // Slices for both runners.
  query::DetectorService::DetectRequest request = fixture.Request(frames);
  request.shards = common::Span<const uint32_t>(shards.data(), shards.size());
  const auto ticket = service.Submit(request);
  service.Flush();

  ASSERT_TRUE(service.transport_status().ok())
      << "one transient on the survivor must not kill the fleet: "
      << service.transport_status().ToString();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  const query::DetectorServiceStats& stats = service.stats();
  // One exhausted batch makes shard 0 suspect, not down: marking a runner
  // down takes kDownAfterFailedBatches exhausted batches in a row.
  EXPECT_EQ(stats.shards_down, 0u);
  EXPECT_EQ(stats.wire_requeues, 1u);   // Shard 0's slice moved to shard 1.
  // 2 exhausted retries on shard 0, 1 absorbed transient per wire batch on
  // shard 1 (the requeued slice and shard 1's own slice).
  EXPECT_EQ(stats.wire_retries, 4u);
}

TEST(DistTransportTest, DownRunnerIsProbedAndReadmitted) {
  // Shard 0 refuses every batch for a while, is marked down, and recovers:
  // a probe after the backoff finds it serving again and re-admits it.
  ServiceFixture fixture;
  ScriptedTransport transport;
  query::DetectorServiceOptions options;
  options.device_batch = 8;
  options.max_retries = 0;
  options.transport = &transport;
  query::DetectorService service(options, 2);

  const std::vector<video::FrameId> frames = {10, 20};
  const std::vector<uint32_t> shards = {0, 0};  // Shard 0's runner is dead.
  for (uint32_t round = 0; round < query::DetectorService::kDownAfterFailedBatches;
       ++round) {
    query::DetectorService::DetectRequest request = fixture.Request(frames);
    request.shards = common::Span<const uint32_t>(shards.data(), shards.size());
    const auto ticket = service.Submit(request);
    service.Flush();
    ASSERT_TRUE(service.Ready(ticket));
    fixture.ExpectDirectDetections(frames, service.Take(ticket));
  }
  EXPECT_EQ(service.stats().shards_down, 1u);
  transport.ReviveShard0();
  std::this_thread::sleep_for(std::chrono::duration<double>(
      2 * query::DetectorService::kProbeBackoffSeconds));
  query::DetectorService::DetectRequest request = fixture.Request(frames);
  request.shards = common::Span<const uint32_t>(shards.data(), shards.size());
  const auto ticket = service.Submit(request);
  service.Flush();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  EXPECT_EQ(service.stats().shards_readmitted, 1u);
  EXPECT_TRUE(service.transport_status().ok());
}

TEST(DistTransportTest, SoleRunnerDownIsProbedUntilItRecovers) {
  // One shard whose runner refuses every batch for a while. With no other
  // runner to requeue onto, the batch waits out each probe's backoff and is
  // sent as the probe; the runner recovers on the 8th send and the flush
  // completes. Sends: 2 exhausted batches of 2 (down after the 4th), then
  // probes after 0.05, 0.1 and 0.2 s fail and the one after 0.4 s serves.
  ServiceFixture fixture;
  ScriptedTransport transport;
  transport.ReviveShard0After(8);
  query::DetectorServiceOptions options;
  options.device_batch = 8;
  options.max_retries = 1;
  options.transport = &transport;
  query::DetectorService service(options, 1);

  const std::vector<video::FrameId> frames = {10, 20, 30};
  const auto ticket = service.Submit(fixture.Request(frames));
  service.Flush();
  ASSERT_TRUE(service.transport_status().ok()) << service.transport_status().ToString();
  ASSERT_TRUE(service.Ready(ticket));
  fixture.ExpectDirectDetections(frames, service.Take(ticket));
  const query::DetectorServiceStats& stats = service.stats();
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_EQ(stats.shards_readmitted, 1u);
  EXPECT_EQ(stats.wire_retries, 2u);
  EXPECT_EQ(stats.wire_requeues, 5u);  // Once onto itself, then four probes.

  // Re-admitted: the next flush is served at once.
  const auto next = service.Submit(fixture.Request(frames));
  service.Flush();
  ASSERT_TRUE(service.Ready(next));
  fixture.ExpectDirectDetections(frames, service.Take(next));
  EXPECT_EQ(stats.wire_requeues, 5u);
  EXPECT_TRUE(service.transport_status().ok());
}

TEST(DistTransportTest, SessionDirectoryResolvesAndRejects) {
  ServiceFixture fixture;
  query::SessionDirectory directory;
  EXPECT_EQ(directory.Resolve(1, 0), nullptr);
  directory.Register(1, 0, &fixture.detector);
  directory.Register(1, 3, &fixture.detector);
  directory.Register(1, 0, &fixture.detector);  // Idempotent re-registration.
  EXPECT_EQ(directory.Resolve(1, 0), &fixture.detector);
  EXPECT_EQ(directory.Resolve(1, 3), &fixture.detector);
  EXPECT_EQ(directory.Resolve(1, 2), nullptr);
  EXPECT_EQ(directory.Resolve(2, 0), nullptr);
  EXPECT_EQ(directory.NumSessions(), 1u);
}

// --- Socket transport: real servers, real TCP --------------------------------
//
// The lane the loopback suite above rehearses for: `exsample_shardd`
// subprocesses materialize sessions from RegisterSessionMsg frames (no shared
// memory at all), detect batches cross localhost TCP, and the traces must
// still be bit-identical to the solo in-process runs — including when a
// server is killed or wedged mid-query.

TEST(SocketFramingTest, FramesRoundTripOverASocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(query::WriteFrame(
                  fds[0], common::Span<const uint8_t>(payload.data(),
                                                      payload.size()))
                  .ok());
  auto frame = query::ReadFrame(fds[1], query::kMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value(), payload);

  // A frame past the receiver's bound is rejected before any allocation.
  ASSERT_TRUE(query::WriteFrame(
                  fds[0], common::Span<const uint8_t>(payload.data(),
                                                      payload.size()))
                  .ok());
  auto bounded = query::ReadFrame(fds[1], /*max_frame_bytes=*/2);
  EXPECT_FALSE(bounded.ok());

  // EOF mid-stream is a clean error, not a hang or a garbage frame.
  ::close(fds[0]);
  EXPECT_FALSE(query::ReadFrame(fds[1], query::kMaxFrameBytes).ok());
  ::close(fds[1]);
}

EngineConfig SocketConfig(std::vector<std::string> hosts) {
  EngineConfig config = OracleConfig();
  config.num_threads = 2;
  config.coalesce_detect = true;
  config.device_batch = 16;
  config.transport = TransportKind::kSocket;
  config.socket.hosts = std::move(hosts);
  config.flush_deadline_seconds = 0.0005;
  return config;
}

class SocketEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SocketEquivalenceTest, AllMethodsMatchSoloRuns) {
  const size_t num_shards = GetParam();
  auto fx = DistFixture::Make(num_shards);
  // The servers rebuild the fixture's scenario from the same (frames, seed)
  // recipe — their only coupling to this process is the flag pair.
  testutil::ShardFleet fleet(EXSAMPLE_SHARDD_PATH, num_shards);

  SearchEngine socket = MakeEngine(*fx, num_shards, SocketConfig(fleet.Hosts()));
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  auto concurrent = socket.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ASSERT_EQ(concurrent.value().size(), specs.size());

  // Real bytes crossed real sockets, and the control plane deployed every
  // session before its first batch.
  ASSERT_NE(socket.shard_transport(), nullptr);
  const query::TransportStats wire = socket.shard_transport()->Stats();
  EXPECT_GT(wire.requests, 0u);
  EXPECT_GT(wire.bytes_sent, 0u);
  EXPECT_GT(wire.bytes_received, 0u);
  EXPECT_GE(wire.control_messages, specs.size() * num_shards)
      << "every session registers on every shard";
  EXPECT_GE(wire.connects, num_shards);
  const query::DetectorServiceStats& stats = socket.detector_service()->stats();
  EXPECT_EQ(wire.requests,
            stats.wire_batches + stats.wire_retries + stats.wire_requeues);
  EXPECT_TRUE(socket.detector_service()->transport_status().ok());
  EXPECT_EQ(socket.detector_service()->directory().NumSessions(), 0u);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("socket vs solo: ") +
                        MethodName(specs[i].options.method) + " at " +
                        std::to_string(num_shards) + " shards");
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, SocketEquivalenceTest,
                         ::testing::Values(1, 2, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

TEST(SocketTransportTest, KilledServerIsInferredAndItsBatchesRequeue) {
  // SIGKILL one of two servers mid-query: the coordinator gets no goodbye,
  // only a dropped connection (and connect-refused on retry). Failure
  // inference must synthesize kUnavailable completions, the service must
  // exhaust retries and requeue onto the survivor, and — because requeues
  // preserve origin_shard — every trace must stay bit-identical to the
  // solo runs.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  testutil::ShardFleet fleet(EXSAMPLE_SHARDD_PATH, num_shards);

  EngineConfig config = SocketConfig(fleet.Hosts());
  config.transport_max_retries = 1;
  config.socket.request_deadline_seconds = 1.0;
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/10);
  size_t steps = 0;
  auto concurrent = engine.RunConcurrent(specs, [&](size_t, const QuerySession&) {
    if (++steps == 5 && fleet.server(1).running()) fleet.server(1).Kill();
  });
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  const query::TransportStats wire = engine.shard_transport()->Stats();
  EXPECT_GT(wire.inferred_failures, 0u)
      << "the kill must be noticed by inference, not reported";
  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_GE(stats.wire_requeues, 1u);
  EXPECT_TRUE(engine.detector_service()->transport_status().ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("socket kill mid-query: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(SocketTransportTest, WedgedServerIsCaughtByTheRequestDeadline) {
  // The nastier failure: a server that stays connected, keeps reading, and
  // never answers (--hang-after). No socket event ever fires — the
  // per-request deadline is the only signal, and its synthesized failures
  // must drive the same retry → requeue recovery with traces intact.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  testutil::ShardFleet healthy(EXSAMPLE_SHARDD_PATH, 1);
  testutil::ShardServer::Options wedged_options;
  wedged_options.hang_after = 2;  // Serves two batches, then goes silent.
  testutil::ShardServer wedged(EXSAMPLE_SHARDD_PATH, wedged_options);

  EngineConfig config =
      SocketConfig({healthy.server(0).host(), wedged.host()});
  config.transport_max_retries = 1;
  // Governs only how long the test waits out the wedge (the server never
  // answers) — generous enough that a sanitizer-slowed healthy batch is
  // never misjudged as wedged.
  config.socket.request_deadline_seconds = 0.5;
  SearchEngine engine = MakeEngine(*fx, num_shards, config);
  SearchEngine reference = MakeEngine(*fx, num_shards, OracleConfig());

  const std::vector<QuerySpec> specs = AllMethodSpecs(/*limit=*/6);
  auto concurrent = engine.RunConcurrent(specs);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();

  const query::TransportStats wire = engine.shard_transport()->Stats();
  EXPECT_GT(wire.inferred_failures, 0u);
  const query::DetectorServiceStats& stats = engine.detector_service()->stats();
  EXPECT_EQ(stats.shards_down, 1u);
  EXPECT_GE(stats.wire_requeues, 1u);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto solo = reference.FindDistinct(specs[i].class_id, specs[i].limit,
                                       specs[i].options);
    ASSERT_TRUE(solo.ok());
    ExpectSameTrace(solo.value(), concurrent.value()[i],
                    std::string("socket wedged server: ") +
                        MethodName(specs[i].options.method));
  }
}

TEST(SocketTransportTest, RepositoryMismatchAckFailsRegistrationByName) {
  // Servers built over a different scenario (different seed, different
  // fingerprint) must refuse the session at *registration* time with a
  // kRepoMismatch ack — surfaced as FailedPrecondition before a single
  // detect batch ships, never buried under availability errors.
  const size_t num_shards = 2;
  auto fx = DistFixture::Make(num_shards);
  testutil::ShardServer::Options wrong;
  // A different frame count yields a different *repository* — which is what
  // the fingerprint covers. (The scenario seed only shapes ground truth, the
  // simulation's stand-in for the video content itself.)
  wrong.frames = 40000;
  testutil::ShardFleet fleet(EXSAMPLE_SHARDD_PATH, num_shards, wrong);

  SearchEngine engine = MakeEngine(*fx, num_shards, SocketConfig(fleet.Hosts()));
  auto result = engine.RunConcurrent(AllMethodSpecs(/*limit=*/5));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("fingerprint"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace engine
}  // namespace exsample
