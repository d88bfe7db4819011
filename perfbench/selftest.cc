// Self-test of the benchmark's helpers: the tail-percentile rule, the trace
// digest, geomean and ratio, the peak-RSS read, and per-step span sums.
// Exits non-zero if any check fails. Run with
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "spans.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  std::string error;
  // 100 samples: p90 is the 90th value with exactly 10 beyond it.
  auto p90 = TailPercentile(Iota(100), 0.9, &error);
  Check(p90.has_value() && p90->value == 90.0 && p90->beyond == 10 && p90->samples == 100,
        "p90 of 1..100 is 90 with 10 beyond");
  // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond -> an error, not a number.
  error.clear();
  Check(!TailPercentile(Iota(99), 0.9, &error).has_value() && !error.empty(),
        "p90 of 99 samples is refused");
  Check(TailPercentile(Iota(20), 0.5, &error).has_value(),
        "p50 of 20 samples is allowed");
  Check(!TailPercentile(Iota(19), 0.5, &error).has_value(),
        "p50 of 19 samples is refused");
  Check(!TailPercentile({}, 0.5, &error).has_value(), "empty input is refused");
  // Order of the input does not matter.
  std::vector<double> shuffled = Iota(1000);
  std::swap(shuffled[0], shuffled[999]);
  std::swap(shuffled[10], shuffled[500]);
  auto p99 = TailPercentile(shuffled, 0.99, &error);
  Check(p99.has_value() && p99->value == 990.0 && p99->beyond == 10,
        "p99 of a shuffled 1..1000 is 990");
  Check(Median({3.0, 1.0, 2.0}) == 2.0 && Median({4.0, 1.0, 3.0, 2.0}) == 2.5,
        "median of odd and even counts");
}

void TestTraceDigest() {
  exsample::query::QueryTrace a;
  a.strategy_name = "exsample";
  a.total_instances = 15;
  exsample::query::DiscoveryPoint p;
  p.samples = 8;
  p.seconds = 0.4;
  p.reported_results = 1;
  p.true_distinct = 1;
  a.points.push_back(p);
  a.final = p;
  exsample::query::QueryTrace b = a;
  Check(TraceDigest::Of(a) == TraceDigest::Of(b), "equal traces digest equal");
  b.points[0].seconds = std::nextafter(0.4, 1.0);
  Check(TraceDigest::Of(a) != TraceDigest::Of(b),
        "one ulp of seconds changes the digest");
  b = a;
  b.final.true_distinct = 2;
  Check(TraceDigest::Of(a) != TraceDigest::Of(b), "final point is digested");
  b = a;
  b.points.push_back(p);
  Check(TraceDigest::Of(a) != TraceDigest::Of(b), "point count is digested");
  b = a;
  b.strategy_name = "exsamplf";
  Check(TraceDigest::Of(a) != TraceDigest::Of(b), "strategy name is digested");
}

void TestGeomeanAndRatio() {
  const auto g = Geomean({1.0, 4.0, 16.0});
  Check(g.has_value() && std::fabs(*g - 4.0) < 1e-12, "geomean of 1,4,16 is 4");
  Check(!Geomean({}).has_value(), "geomean of nothing is refused");
  Check(!Geomean({1.0, 0.0}).has_value(), "geomean with a zero is refused");
  Check(!Geomean({1.0, -2.0}).has_value(), "geomean with a negative is refused");
  Check(Ratio(3.0, 4.0) == 0.75, "ratio");
  Check(Ratio(3.0, 0.0) == 0.0, "ratio over zero is 0");
}

void TestPeakRss() {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t    2048 kB\n";
  const auto mib = ParseVmHwmMiB(status);
  Check(mib.has_value() && *mib == 2.0, "VmHWM 2048 kB is 2 MiB");
  Check(!ParseVmHwmMiB("VmRSS:\t 10 kB\n").has_value(), "missing VmHWM is refused");
  Check(!ParseVmHwmMiB("VmHWM:\t garbage\n").has_value(), "malformed VmHWM is refused");
  const auto live = PeakRssMiB();
  Check(live.has_value() && *live > 0.0, "this process has a peak RSS");
}

void TestSpanLog() {
  SpanLog log;
  log.BeginStep(0.0);
  log.Add(Layer::kDiscriminate, 0.1, 0.2);
  log.Add(Layer::kDiscriminate, 0.3, 0.5);
  log.EndStep(1.0);
  log.BeginStep(1.0);
  log.Add(Layer::kPick, 1.0, 1.5);
  log.EndStep(2.0);
  const std::vector<double> disc = log.PerStep(Layer::kDiscriminate);
  Check(disc.size() == 1 && std::fabs(disc[0] - 0.3) < 1e-12,
        "per-step sum covers only steps with spans");
  Check(log.PerStep(Layer::kStep).size() == 2, "one step sample per step");
  Check(log.Count(Layer::kDiscriminate) == 2, "span count");
  Check(std::fabs(log.TotalSeconds(Layer::kPick) - 0.5) < 1e-12, "span total");
}

void TestRoundTimer() {
  RoundTimer rounds(10.0);
  // Round 1: sessions 0,1,2 finish at 13, 13.1, 13.2; round 2: 0,2 (1 is
  // done) at 15, 15.1; round 3: 0 alone at 16.
  for (const auto& [session, now] : std::vector<std::pair<size_t, double>>{
           {0, 13.0}, {1, 13.1}, {2, 13.2}, {0, 15.0}, {2, 15.1}, {0, 16.0}}) {
    rounds.Step(session, now);
  }
  rounds.Close();
  rounds.Close();  // Nothing open: no empty round.
  const std::vector<double>& r = rounds.rounds();
  Check(r.size() == 3, "a round ends where a session repeats and at Close");
  Check(r.size() == 3 && std::fabs(r[0] - 3.2) < 1e-9 && std::fabs(r[1] - 1.9) < 1e-9 &&
            std::fabs(r[2] - 0.9) < 1e-9,
        "rounds tile the run from the start to the last callback");
  Check(rounds.steps() == 6, "every callback is one session step");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestTraceDigest();
  perfbench::TestGeomeanAndRatio();
  perfbench::TestPeakRss();
  perfbench::TestSpanLog();
  perfbench::TestRoundTimer();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
