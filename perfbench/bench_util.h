#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Measurement helpers of the benchmark: the tail-percentile rule, the trace
// digest, geomean/ratio, the peak-RSS read, and a minimal JSON writer.
// Depends on the library only for `query::QueryTrace`; selftest.cc checks
// every helper here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "query/trace.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it; a thinner tail is noise, not a measurement.
inline constexpr size_t kMinTailSamples = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< Samples the percentile was taken over.
  size_t beyond = 0;   ///< Samples strictly after the reported rank.
};

/// Nearest-rank `p`-quantile (p in (0, 1]) of `values`: the sorted sample at
/// rank ceil(p * n). Returns nullopt and fills `error` when fewer than
/// `kMinTailSamples` samples lie beyond that rank (or `values` is empty).
inline std::optional<Percentile> TailPercentile(std::vector<double> values, double p,
                                                std::string* error) {
  const size_t n = values.size();
  if (n == 0 || !(p > 0.0 && p <= 1.0)) {
    if (error != nullptr) *error = "no samples";
    return std::nullopt;
  }
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  const size_t beyond = n - rank;
  if (beyond < kMinTailSamples) {
    if (error != nullptr) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "p%g over %zu samples leaves %zu beyond it (< %zu required)",
                    p * 100.0, n, beyond, kMinTailSamples);
      *error = buf;
    }
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return Percentile{values[rank - 1], n, beyond};
}

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Geometric mean of strictly positive values; nullopt if any value is not
/// positive and finite, or there are none.
inline std::optional<double> Geomean(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) return std::nullopt;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// 64-bit FNV-1a digest of everything a trace holds (doubles by bit
/// pattern), so two traces digest equal exactly when they are bit-identical.
class TraceDigest {
 public:
  static uint64_t Of(const exsample::query::QueryTrace& trace) {
    TraceDigest d;
    d.Bytes(trace.strategy_name.data(), trace.strategy_name.size());
    d.U64(trace.strategy_name.size());
    d.U64(trace.total_instances);
    d.U64(trace.points.size());
    for (const auto& point : trace.points) d.Point(point);
    d.Point(trace.final);
    return d.hash_;
  }

 private:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Point(const exsample::query::DiscoveryPoint& p) {
    U64(p.samples);
    uint64_t bits = 0;
    std::memcpy(&bits, &p.seconds, sizeof(bits));
    U64(bits);
    U64(p.reported_results);
    U64(p.true_distinct);
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Parses the `VmHWM:` line of a /proc/<pid>/status text into MiB; nullopt
/// when the line is missing or malformed.
inline std::optional<double> ParseVmHwmMiB(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    unsigned long long kib = 0;
    char unit[8] = {0};
    if (std::sscanf(line.c_str() + 6, "%llu %7s", &kib, unit) != 2) return std::nullopt;
    if (std::strcmp(unit, "kB") != 0) return std::nullopt;
    return static_cast<double>(kib) / 1024.0;
  }
  return std::nullopt;
}

/// Peak resident set of this process so far, in MiB.
inline std::optional<double> PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return ParseVmHwmMiB(text.str());
}

/// Formats a double with all its digits (round-trip precision).
inline std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string literal with the escapes this benchmark's text can need.
inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
