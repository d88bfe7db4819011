#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Benchmark-side tracing: an in-memory span log and decorators that record a
// span around every call into a layer's public interface (strategy pick and
// observe, detector batch, discriminator match+add). Spans live only in the
// traced run; the untraced run never constructs any of this.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "query/strategy.h"
#include "track/discriminator.h"

namespace perfbench {

enum class Layer : uint8_t { kStep, kPick, kObserve, kDetect, kDiscriminate };
inline constexpr size_t kNumLayers = 5;

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStep:
      return "engine.step";
    case Layer::kPick:
      return "core.pick";
    case Layer::kObserve:
      return "core.observe";
    case Layer::kDetect:
      return "detect.detect";
    case Layer::kDiscriminate:
      return "track.discriminate";
  }
  return "unknown";
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span. `parent` is the index of the enclosing step span (-1
/// for a step itself).
struct Span {
  Layer layer = Layer::kStep;
  int32_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Spans of one traced run, in memory until the run ends. Single-threaded:
/// every decorated call runs on the coordinator thread.
class SpanLog {
 public:
  void BeginStep(double start) {
    step_ = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{Layer::kStep, -1, start, start});
  }
  void EndStep(double end) {
    if (step_ >= 0) spans_[static_cast<size_t>(step_)].end = end;
    step_ = -1;
  }
  void Add(Layer layer, double start, double end) {
    spans_.push_back(Span{layer, step_, start, end});
  }

  /// Per-step durations of `layer` in seconds: a step's spans of that layer
  /// summed, one sample per step that has any (steps are the granularity the
  /// engine's stage timer reports too). For `kStep` itself, each step span.
  std::vector<double> PerStep(Layer layer) const {
    std::vector<double> out;
    if (layer == Layer::kStep) {
      for (const Span& s : spans_) {
        if (s.layer == Layer::kStep) out.push_back(s.end - s.start);
      }
      return out;
    }
    std::vector<double> by_step(spans_.size(), -1.0);
    for (const Span& s : spans_) {
      if (s.layer != layer || s.parent < 0) continue;
      double& slot = by_step[static_cast<size_t>(s.parent)];
      slot = (slot < 0.0 ? 0.0 : slot) + (s.end - s.start);
    }
    for (const double v : by_step) {
      if (v >= 0.0) out.push_back(v);
    }
    return out;
  }

  double TotalSeconds(Layer layer) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.layer == layer) total += s.end - s.start;
    }
    return total;
  }

  uint64_t Count(Layer layer) const {
    uint64_t n = 0;
    for (const Span& s : spans_) n += s.layer == layer ? 1 : 0;
    return n;
  }

 private:
  std::vector<Span> spans_;
  int32_t step_ = -1;
};

/// Scheduler rounds of a concurrent run, seen from its per-session step
/// callbacks. `RunConcurrent` begins a step for every live session, flushes
/// the shared detect service and then finishes the steps one after another,
/// so the gap before a round's first callback holds the whole round and the
/// later gaps only a `FinishStep` each. A round therefore ends when a session
/// index repeats (or at `Close`), and its time runs from the previous round's
/// last callback (or the start) to its own last callback.
class RoundTimer {
 public:
  explicit RoundTimer(double start) : round_start_(start), last_(start) {}

  void Step(size_t session, double now) {
    if (std::find(open_.begin(), open_.end(), session) != open_.end()) Close();
    open_.push_back(session);
    last_ = now;
    ++steps_;
  }
  /// Ends the open round, if any (call once the run returns).
  void Close() {
    if (open_.empty()) return;
    rounds_.push_back(last_ - round_start_);
    round_start_ = last_;
    open_.clear();
  }

  const std::vector<double>& rounds() const { return rounds_; }
  uint64_t steps() const { return steps_; }

 private:
  double round_start_;
  double last_;
  std::vector<size_t> open_;
  std::vector<double> rounds_;
  uint64_t steps_ = 0;
};

/// Strategy decorator: pick = `NextBatch`/`NextFrame`, observe =
/// `ObserveBatch`/`Observe`. Everything else forwards unchanged, so the
/// decorated strategy's trace is the inner one's.
class TracedStrategy : public exsample::query::SearchStrategy {
 public:
  TracedStrategy(std::unique_ptr<exsample::query::SearchStrategy> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::optional<exsample::video::FrameId> NextFrame() override {
    const double start = NowSeconds();
    auto frame = inner_->NextFrame();
    log_->Add(Layer::kPick, start, NowSeconds());
    return frame;
  }
  void Observe(exsample::video::FrameId frame, size_t new_results,
               size_t once_matched) override {
    const double start = NowSeconds();
    inner_->Observe(frame, new_results, once_matched);
    log_->Add(Layer::kObserve, start, NowSeconds());
  }
  std::vector<exsample::video::FrameId> NextBatch(size_t max_frames) override {
    const double start = NowSeconds();
    auto batch = inner_->NextBatch(max_frames);
    log_->Add(Layer::kPick, start, NowSeconds());
    return batch;
  }
  void ObserveBatch(
      exsample::common::Span<exsample::query::FrameFeedback> feedback) override {
    const double start = NowSeconds();
    inner_->ObserveBatch(feedback);
    log_->Add(Layer::kObserve, start, NowSeconds());
  }
  double UpfrontCostSeconds() const override { return inner_->UpfrontCostSeconds(); }
  double CumulativeOverheadSeconds() const override {
    return inner_->CumulativeOverheadSeconds();
  }
  const exsample::core::ChunkStatsTable* ChunkStatistics() const override {
    return inner_->ChunkStatistics();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<exsample::query::SearchStrategy> inner_;
  SpanLog* log_;
};

/// Detector decorator: one span per `DetectBatch` (the runner's detect-stage
/// entry point); per-frame `Detect` forwards untimed.
class TracedDetector : public exsample::detect::ObjectDetector {
 public:
  TracedDetector(exsample::detect::ObjectDetector* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  exsample::detect::Detections Detect(exsample::video::FrameId frame) override {
    return inner_->Detect(frame);
  }
  std::vector<exsample::detect::Detections> DetectBatch(
      exsample::common::Span<exsample::video::FrameId> frames,
      exsample::common::ThreadPool* pool) override {
    const double start = NowSeconds();
    auto detections = inner_->DetectBatch(frames, pool);
    log_->Add(Layer::kDetect, start, NowSeconds());
    return detections;
  }
  double SecondsPerFrame() const override { return inner_->SecondsPerFrame(); }
  uint64_t FramesProcessed() const override { return inner_->FramesProcessed(); }

 private:
  exsample::detect::ObjectDetector* inner_;
  SpanLog* log_;
};

/// Discriminator decorator: the runner calls `Observe` (= `GetMatches` then
/// `Add`) once per frame, so a span opens in `GetMatches` and closes in the
/// `Add` that follows it.
class TracedDiscriminator : public exsample::track::Discriminator {
 public:
  TracedDiscriminator(exsample::track::Discriminator* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  exsample::track::MatchResult GetMatches(
      exsample::video::FrameId frame,
      const exsample::detect::Detections& dets) const override {
    match_start_ = NowSeconds();
    return inner_->GetMatches(frame, dets);
  }
  void Add(exsample::video::FrameId frame,
           const exsample::detect::Detections& dets) override {
    inner_->Add(frame, dets);
    log_->Add(Layer::kDiscriminate, match_start_, NowSeconds());
  }
  uint64_t DistinctResults() const override { return inner_->DistinctResults(); }
  std::string name() const override { return inner_->name(); }

 private:
  exsample::track::Discriminator* inner_;
  SpanLog* log_;
  mutable double match_start_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
