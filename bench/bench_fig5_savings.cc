// Reproduces Fig. 5 (Sec. V-C): time-savings ratio of ExSample over random
// sampling for every (dataset, class) query of the evaluation, at recall
// levels 0.1, 0.5, and 0.9.
//
// Datasets are the six emulations of Sec. V-A (sizes, chunk structures, and
// published N / skew values where the paper reports them). Ratios are
// medians over runs, computed on seconds at the paper's 20 fps detector rate.
// Paper's headline numbers for comparison: max ~6x, worst ~0.75x (amsterdam/
// boat), geometric mean 1.9x across all queries.
//
// Default: 2 runs at 1/10 linear scale (--full: 5 runs at 1/4 scale). Sample
// counts are approximately scale-invariant (see datasets/presets.h).
//
// Every (dataset, class, run) query is independent and deterministic, so the
// queries run on a `common::ThreadPool` (one worker per hardware thread) and
// their traces are gathered in a fixed order: the table is byte-identical to
// a serial run.
//
// --check is the fidelity gate: it exits 1 when the summary's geometric
// mean, p10, p90, best, or worst ratio falls outside its band (kBands below,
// also listed in README's "Fidelity to the paper").

#include "bench_common.h"

namespace exsample {
namespace bench {
namespace {

// Closed bands around the paper's reported values. Each is wide enough for
// run-to-run noise of the quick profile and narrow enough that chunk-
// stratified random sampling (ExSample with a uniform chunk policy, whose
// savings hover near 1x) falls outside several of them.
struct Band {
  const char* name;
  double lo;
  double hi;
  const char* paper;
};
constexpr Band kGeomeanBand{"geometric mean", 1.4, 2.4, "1.9x"};
constexpr Band kP10Band{"p10", 0.9, 1.6, "1.2x"};
constexpr Band kP90Band{"p90", 2.2, 5.0, "3.7x"};
constexpr Band kBestBand{"best", 4.0, 12.0, "~6x"};
constexpr Band kWorstBand{"worst", 0.4, 1.1, "0.75x"};

// One (dataset, class, run) query pair: random sampling and ExSample.
struct Task {
  const datasets::BuiltDataset* dataset;
  const datasets::QuerySpec* query;
  int run;
};

struct TaskResult {
  query::QueryTrace random;
  query::QueryTrace exsample;
};

bool InBand(const Band& band, double value) {
  const bool ok = value >= band.lo && value <= band.hi;
  std::printf("  %-15s %-7s band [%.2f, %.2f] (paper: %s)%s\n", band.name,
              common::FormatRatio(value).c_str(), band.lo, band.hi, band.paper,
              ok ? "" : "   OUT OF BAND");
  return ok;
}

int Main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::Parse(argc, argv);
  const int runs = config.Runs(2, 5);
  const double scale = config.full ? 0.25 : 0.1;
  const std::vector<double> recalls{0.1, 0.5, 0.9};
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  std::printf("=== Fig. 5: savings ratio ExSample vs random, all queries ===\n");
  std::printf("%d runs per strategy, datasets at %.2f linear scale\n\n", runs, scale);

  std::vector<datasets::BuiltDataset> built;
  for (const datasets::DatasetSpec& spec : datasets::AllDatasetSpecs()) {
    auto ds = datasets::BuiltDataset::Build(spec, config.seed, scale);
    if (!ds.ok()) {
      std::fprintf(stderr, "build %s failed: %s\n", spec.name.c_str(),
                   ds.status().ToString().c_str());
      return 1;
    }
    built.push_back(std::move(ds).value());
  }

  std::vector<Task> tasks;
  for (const datasets::BuiltDataset& ds : built) {
    for (const datasets::QuerySpec& q : ds.spec().queries) {
      for (int run = 0; run < runs; ++run) tasks.push_back({&ds, &q, run});
    }
  }
  std::vector<TaskResult> results(tasks.size());
  common::ThreadPool pool;
  pool.ParallelFor(tasks.size(), [&](size_t i) {
    const Task& task = tasks[i];
    const datasets::BuiltDataset& ds = *task.dataset;
    const int32_t class_id = task.query->class_id;
    const uint64_t target =
        RecallCount(ds.truth().NumInstances(class_id), recalls.back());
    samplers::UniformRandomStrategy random(&ds.repo(), config.seed + 300 + task.run);
    results[i].random = RunOracleQuery(ds.truth(), class_id, &random, target,
                                       ds.repo().TotalFrames());
    core::ExSampleOptions options;
    options.seed = config.seed + 400 + task.run;
    core::ExSampleStrategy strategy(&ds.chunking(), options);
    results[i].exsample = RunOracleQuery(ds.truth(), class_id, &strategy, target,
                                         ds.repo().TotalFrames());
  });

  common::TextTable table;
  table.SetHeader({"dataset", "class", "N", "savings@.1", "savings@.5",
                   "savings@.9"});
  std::vector<double> all_ratios;
  double worst = 1e9, best = 0.0;
  std::string worst_name, best_name;
  size_t next = 0;
  for (const datasets::BuiltDataset& ds : built) {
    const std::string& dataset_name = ds.spec().name;
    for (const datasets::QuerySpec& q : ds.spec().queries) {
      std::vector<query::QueryTrace> random_runs, exsample_runs;
      for (int run = 0; run < runs; ++run, ++next) {
        random_runs.push_back(std::move(results[next].random));
        exsample_runs.push_back(std::move(results[next].exsample));
      }
      std::vector<std::string> row{dataset_name, q.class_name,
                                   common::FormatCount(q.instance_count)};
      for (double recall : recalls) {
        const auto ratio = query::SavingsRatio(random_runs, exsample_runs, recall);
        row.push_back(ratio ? common::FormatRatio(*ratio) : "-");
        if (ratio) {
          all_ratios.push_back(*ratio);
          const std::string name = dataset_name + "/" + q.class_name;
          if (*ratio < worst) {
            worst = *ratio;
            worst_name = name;
          }
          if (*ratio > best) {
            best = *ratio;
            best_name = name;
          }
        }
      }
      table.AddRow(std::move(row));
    }
    table.AddSeparator();
  }
  std::printf("%s", table.ToString().c_str());

  const double geomean = common::GeometricMean(all_ratios);
  const double p10 = common::Quantile(all_ratios, 0.1);
  const double p90 = common::Quantile(all_ratios, 0.9);
  std::printf("\nsummary over %zu (query, recall) ratios:\n", all_ratios.size());
  std::printf("  geometric mean: %s   (paper: 1.9x)\n",
              common::FormatRatio(geomean).c_str());
  std::printf("  best:  %s (%s)      (paper: ~6x)\n",
              common::FormatRatio(best).c_str(), best_name.c_str());
  std::printf("  worst: %s (%s)   (paper: 0.75x, amsterdam/boat)\n",
              common::FormatRatio(worst).c_str(), worst_name.c_str());
  std::printf("  p10: %s  p90: %s      (paper: 1.2x / 3.7x)\n",
              common::FormatRatio(p10).c_str(), common::FormatRatio(p90).c_str());
  if (!check) return 0;

  std::printf("\nfidelity gate:\n");
  bool ok = InBand(kGeomeanBand, geomean);
  ok = InBand(kP10Band, p10) && ok;
  ok = InBand(kP90Band, p90) && ok;
  ok = InBand(kBestBand, best) && ok;
  ok = InBand(kWorstBand, worst) && ok;
  std::printf("fidelity gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace exsample

int main(int argc, char** argv) { return exsample::bench::Main(argc, argv); }
