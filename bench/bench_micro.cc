// Microbenchmarks (google-benchmark): the per-operation costs that determine
// how much CPU overhead ExSample adds on top of the detector.
//
// The paper's premise is that the detector dominates (50 ms/frame at 20 fps);
// these benchmarks verify the sampling machinery is orders of magnitude
// cheaper — a Thompson step over 128 chunks should cost microseconds.

#include <benchmark/benchmark.h>

#include "exsample/exsample.h"

namespace exsample {
namespace {

void BM_RngNextU64(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_GammaSample(benchmark::State& state) {
  common::Rng rng(2);
  const double shape = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gamma(shape, 1.0));
  }
}
BENCHMARK(BM_GammaSample)->Arg(1)->Arg(10)->Arg(100);  // shape .1, 1, 10.

void BM_GammaQuantile(benchmark::State& state) {
  const stats::GammaBelief belief(5.1, 101.0);
  double q = 0.001;
  for (auto _ : state) {
    q += 0.0001;
    if (q >= 0.999) q = 0.001;
    benchmark::DoNotOptimize(belief.Quantile(q));
  }
}
BENCHMARK(BM_GammaQuantile);

// Args: chunk count, then the hit rate (percent) of the 10 samples each chunk
// is seeded with. The 1600-chunk, 0% case is BDD MOT early in a query: every
// chunk at N1 = 0, so every draw takes the shape-0.1 boost path.
void BM_ThompsonPick(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  const double hit_rate = static_cast<double>(state.range(1)) / 100.0;
  core::ChunkStatsTable stats(chunks);
  common::Rng rng(3);
  for (size_t j = 0; j < chunks; ++j) {
    for (int i = 0; i < 10; ++i) {
      stats.Update(j, rng.Bernoulli(hit_rate) ? 1 : 0, 0);
    }
  }
  core::ThompsonPolicy policy;
  std::vector<bool> eligible(chunks, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, eligible, rng));
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_ThompsonPick)
    ->ArgNames({"chunks", "hit_pct"})
    ->Args({16, 10})
    ->Args({128, 10})
    ->Args({1024, 10})
    ->Args({1600, 0});

// Per-draw costs behind ThompsonPolicy::kGroupCrossover: one keyed
// Marsaglia–Tsang draw (the small-group path) against one inversion at a
// group's largest U (the large-group path). Arg: shape x 10.
void BM_ThompsonKeyedDraw(benchmark::State& state) {
  const common::GammaSampler sampler(static_cast<double>(state.range(0)) / 10.0);
  uint64_t key = 1;
  for (auto _ : state) {
    common::SplitMixStream stream(common::KeyedHash(++key, 7));
    benchmark::DoNotOptimize(sampler.Draw(stream, 11.0));
  }
}
BENCHMARK(BM_ThompsonKeyedDraw)->Arg(1)->Arg(11)->Arg(51);

// The inversion at the largest of ~1000 uniforms, where a large group's
// maximum sits.
void BM_ThompsonGroupInversion(benchmark::State& state) {
  const double shape = static_cast<double>(state.range(0)) / 10.0;
  const double log_gamma = common::LogGamma(shape);
  uint64_t key = 1;
  for (auto _ : state) {
    const uint64_t bits = ~(common::KeyedHash(++key, 7) >> 10);
    benchmark::DoNotOptimize(
        common::GammaQuantile(shape, log_gamma, common::UnitFromBits(bits)));
  }
}
BENCHMARK(BM_ThompsonGroupInversion)->Arg(1)->Arg(11)->Arg(51);

// Cases belief grouping cannot help. 1600 chunks whose warm-start priors
// make every belief distinct, so every draw takes the per-chunk path.
void BM_ThompsonPickDistinctBeliefs(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  core::ChunkStatsTable stats(chunks);
  common::Rng rng(14);
  std::vector<core::BeliefParams> priors(chunks);
  for (size_t j = 0; j < chunks; ++j) {
    priors[j] = {0.1 + 1e-3 * static_cast<double>(j), 1.0};
    for (int i = 0; i < 10; ++i) stats.Update(j, rng.Bernoulli(0.1) ? 1 : 0, 0);
  }
  core::ThompsonPolicy policy;
  policy.SetChunkPriors(priors);
  std::vector<bool> eligible(chunks, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, eligible, rng));
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_ThompsonPickDistinctBeliefs)->Arg(1600);

// 60 chunks with n spread from tens to thousands of samples, as late in a
// `repeat_reuse` query: nearly every (N1, n) pair is its own group.
void BM_ThompsonPickSpreadN(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  core::ChunkStatsTable stats(chunks);
  common::Rng rng(15);
  for (size_t j = 0; j < chunks; ++j) {
    const int samples = 20 + static_cast<int>(j * j);
    for (int i = 0; i < samples; ++i) stats.Update(j, rng.Bernoulli(0.02) ? 1 : 0, 0);
  }
  core::ThompsonPolicy policy;
  std::vector<bool> eligible(chunks, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, eligible, rng));
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_ThompsonPickSpreadN)->Arg(60);

void BM_BayesUcbPick(benchmark::State& state) {
  const size_t chunks = static_cast<size_t>(state.range(0));
  core::ChunkStatsTable stats(chunks);
  common::Rng rng(4);
  for (size_t j = 0; j < chunks; ++j) stats.Update(j, 1, 0);
  core::BayesUcbPolicy policy;
  std::vector<bool> eligible(chunks, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.PickChunk(stats, eligible, rng));
  }
}
BENCHMARK(BM_BayesUcbPick)->Arg(128);

void BM_PermutationLookup(benchmark::State& state) {
  common::RandomPermutation perm(1'000'003, 5);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm(i));
    if (++i >= 1'000'003) i = 0;
  }
}
BENCHMARK(BM_PermutationLookup);

void BM_StratifiedSamplerNext(benchmark::State& state) {
  core::StratifiedFrameSampler sampler(0, 1'000'000'000, 7);
  common::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Next(rng));
  }
}
BENCHMARK(BM_StratifiedSamplerNext);

void BM_IntervalIndexQuery(benchmark::State& state) {
  common::Rng rng(7);
  scene::SceneSpec spec;
  spec.total_frames = 16'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 2000;
  cls.duration.mean_frames = 700.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  uint64_t frame = 0;
  uint64_t count = 0;
  for (auto _ : state) {
    frame = (frame + 7919 * 1013) % spec.total_frames;
    truth.ForEachVisible(frame, [&count](const scene::Trajectory&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IntervalIndexQuery);

void BM_DetectorDetect(benchmark::State& state) {
  common::Rng rng(8);
  scene::SceneSpec spec;
  spec.total_frames = 1'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 1000;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector detector(&truth, detect::DetectorOptions{});
  uint64_t frame = 0;
  for (auto _ : state) {
    frame = (frame + 104729) % spec.total_frames;
    benchmark::DoNotOptimize(detector.Detect(frame));
  }
}
BENCHMARK(BM_DetectorDetect);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Fixed cost of fanning a batch across the pool (empty tasks): the
  // overhead DetectBatch pays before any detection work starts.
  common::ThreadPool pool(static_cast<size_t>(state.range(0)));
  const size_t batch = 32;
  for (auto _ : state) {
    pool.ParallelFor(batch, [](size_t i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DetectBatch(benchmark::State& state) {
  // Batch entry point vs. a Detect loop (same simulated detector): measures
  // the per-batch overhead of the batch-first pipeline, and with threads > 1
  // the parallel fan-out of a latency-free (CPU-bound) detector.
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  common::Rng rng(12);
  scene::SceneSpec spec;
  spec.total_frames = 1'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 1000;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector detector(&truth, detect::DetectorOptions{});
  common::ThreadPool pool(threads);
  std::vector<video::FrameId> frames(batch);
  uint64_t frame = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      frame = (frame + 104729) % spec.total_frames;
      frames[i] = frame;
    }
    benchmark::DoNotOptimize(detector.DetectBatch(frames, &pool));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DetectBatch)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({8, 4})
    ->Args({32, 4})
    ->UseRealTime();

void BM_ThrottledDetectBatch(benchmark::State& state) {
  // The latency-bound regime (GPU/remote inference, 1 ms per call): the
  // reason the pipeline is batch-first. Frames/sec = items_per_second.
  const size_t batch = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  common::Rng rng(13);
  scene::SceneSpec spec;
  spec.total_frames = 100'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 100;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector base(&truth, detect::DetectorOptions{});
  detect::ThrottledDetector detector(&base, 1e-3);
  common::ThreadPool pool(threads);
  std::vector<video::FrameId> frames(batch);
  uint64_t frame = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      frame = (frame + 104729) % spec.total_frames;
      frames[i] = frame;
    }
    benchmark::DoNotOptimize(detector.DetectBatch(frames, &pool));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ThrottledDetectBatch)
    ->Args({1, 1})
    ->Args({8, 4})
    ->Args({16, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DiscriminatorObserve(benchmark::State& state) {
  common::Rng rng(9);
  scene::SceneSpec spec;
  spec.total_frames = 1'000'000;
  scene::ClassPopulationSpec cls;
  cls.instance_count = 1000;
  cls.duration.mean_frames = 500.0;
  spec.classes.push_back(cls);
  const scene::GroundTruth truth =
      std::move(scene::GenerateScene(spec, nullptr, rng)).value();
  detect::SimulatedDetector detector(&truth, detect::DetectorOptions{});
  track::IouTrackerDiscriminator discrim(&truth, {});
  uint64_t frame = 0;
  for (auto _ : state) {
    frame = (frame + 104729) % spec.total_frames;
    benchmark::DoNotOptimize(discrim.Observe(frame, detector.Detect(frame)));
  }
}
BENCHMARK(BM_DiscriminatorObserve);

void BM_SimplexProjection(benchmark::State& state) {
  common::Rng rng(10);
  std::vector<double> v(static_cast<size_t>(state.range(0)));
  for (double& x : v) x = rng.Normal(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::ProjectToSimplex(v));
  }
}
BENCHMARK(BM_SimplexProjection)->Arg(128)->Arg(1024);

void BM_BernoulliModelRun(benchmark::State& state) {
  common::Rng rng(11);
  const auto probs = sim::LogNormalProbabilities(1000, 3e-3, 8e-3, 0.15, rng);
  sim::BernoulliOccupancyModel model(probs);
  const std::vector<uint64_t> points{100, 10000, 180000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RunAtPoints(points, rng));
  }
}
BENCHMARK(BM_BernoulliModelRun);

}  // namespace
}  // namespace exsample

BENCHMARK_MAIN();
