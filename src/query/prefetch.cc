#include "query/prefetch.h"

#include <algorithm>
#include <thread>

namespace exsample {
namespace query {

DecodePrefetcher::DecodePrefetcher(video::SimulatedVideoStore* store,
                                   common::ThreadPool* pool, PrefetchOptions options)
    : store_(store), pool_(pool), options_(options) {
  common::Check(store_ != nullptr, "DecodePrefetcher needs a store");
  completions_ =
      std::make_unique<common::MpscRingBuffer<size_t>>(options_.depth + 1);
}

DecodePrefetcher::DecodePrefetcher(ShardDispatcher* dispatcher,
                                   common::ThreadPool* pool, PrefetchOptions options)
    : dispatcher_(dispatcher), pool_(pool), options_(options) {
  common::Check(dispatcher_ != nullptr, "DecodePrefetcher needs a dispatcher");
  common::Check(dispatcher_->HasStores(),
                "sharded prefetching needs per-shard decode stores");
  completions_ =
      std::make_unique<common::MpscRingBuffer<size_t>>(options_.depth + 1);
}

DecodePrefetcher::~DecodePrefetcher() {
  Drain();
  // Drain guarantees every frame is decoded, but tasks can outlive it: a
  // winner's last act — waking the parker — can still be in flight after its
  // completion became visible, and losers or stale tasks may still sit in
  // the pool's queue. Spin them out before the members they read go away.
  while (inflight_tasks_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

const std::vector<double>& DecodePrefetcher::SubmitBatch(
    common::Span<video::FrameId> frames, common::Span<const uint32_t> shards) {
  // Every read of the previous batch must be performed before its slots are
  // reused. Tasks still queued from it need not run first: they find their
  // claim words taken and touch nothing else.
  Drain();
  common::Check(dispatcher_ == nullptr || shards.size() == frames.size(),
                "sharded prefetch needs the owner of every frame");

  // Everything below runs under mu_: no decode task of ours is performing a
  // read (Drain just completed, and enqueueing happens at the end of this
  // scope), but a concurrent observer may be inside Cached(), which reads the
  // containers this section rebuilds.
  std::lock_guard<std::mutex> lock(mu_);
  generation_ += 1;
  if (frames.size() > claims_capacity_) {
    // Stale tasks read claims_; reallocate only once none is left.
    while (inflight_tasks_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    claims_capacity_ = std::max(frames.size(), 2 * claims_capacity_);
    claims_ = std::make_unique<std::atomic<uint64_t>[]>(claims_capacity_);
    for (size_t i = 0; i < claims_capacity_; ++i) {
      claims_[i].store(0, std::memory_order_relaxed);
    }
  }
  slots_.clear();
  slots_.resize(frames.size());
  charges_.resize(frames.size());
  cache_.clear();
  cache_.reserve(frames.size());

  // Plan every read now, on this thread, in batch order. This *is* the decode
  // accounting: position state and charged seconds advance exactly as the
  // synchronous loop's would, before any asynchronous work begins.
  for (size_t i = 0; i < frames.size(); ++i) {
    Slot& slot = slots_[i];
    slot.frame = frames[i];
    if (dispatcher_ != nullptr) {
      const uint32_t shard = shards[i];
      slot.plan = dispatcher_->PlanDecode(frames[i], shard);
      slot.store = dispatcher_->Context(shard).store;
      slot.pool = dispatcher_->Context(shard).io_pool != nullptr
                      ? dispatcher_->Context(shard).io_pool
                      : pool_;
    } else {
      auto plan = store_->PlanRead(frames[i]);
      common::CheckOk(plan.status(), "prefetch decode failed");
      slot.plan = plan.value();
      slot.store = store_;
      slot.pool = pool_;
    }
    charges_[i] = slot.plan.seconds;
    cache_.emplace(frames[i], i);
  }
  stats_.batches += 1;
  stats_.frames += frames.size();

  cursor_ = 0;
  enqueued_ = 0;
  if (options_.depth == 0) {
    // Synchronous mode: perform every read inline, in order, before the
    // detect stage sees the batch — the legacy decode schedule, through the
    // same code path, which is what the overlap benches compare against.
    for (Slot& slot : slots_) {
      slot.store->PerformRead(slot.plan);
      slot.ready = true;
      stats_.inline_reads += 1;
    }
    enqueued_ = slots_.size();
  } else {
    EnqueueAheadLocked();
  }
  return charges_;
}

void DecodePrefetcher::EnqueueAheadLocked() {
  const size_t limit = std::min(slots_.size(), cursor_ + options_.depth);
  while (enqueued_ < limit) {
    const size_t i = enqueued_++;
    Slot& slot = slots_[i];
    if (slot.pool == nullptr || slot.pool->NumThreads() <= 1) {
      // No pool (or a workerless one, whose Submit would run the task inline
      // on this thread — under our own mutex): perform the read here. Still
      // correct, just the synchronous schedule.
      slot.store->PerformRead(slot.plan);
      slot.ready = true;
      stats_.inline_reads += 1;
      continue;
    }
    stats_.async_reads += 1;
    inflight_tasks_.fetch_add(1, std::memory_order_relaxed);
    slot.pool->Submit([this, i, generation = generation_] {
      if (TryClaim(i, generation)) {
        // Winning the claim means this batch is live and slot i unperformed:
        // the slot vector cannot be rebuilt until the ring push below is
        // popped, and plan/store are immutable once enqueued. Completion is
        // announced by that push, not by touching the slot.
        Slot& s = slots_[i];
        s.store->PerformRead(s.plan);
        // The push cannot fail: in-order consumption keeps unconsumed
        // completions bounded by `depth + 1`, which is the ring's capacity
        // (see the member comment). A full ring here means the window
        // invariant broke — die loudly rather than drop a frame.
        common::Check(completions_->TryPush(size_t{i}),
                      "prefetch completion ring overflow");
        // Waiter-counted wake: no syscall (and no mutex) unless the
        // coordinator is actually parked in WaitFrame/Drain.
        ready_parker_.WakeOne();
      }
      inflight_tasks_.fetch_sub(1, std::memory_order_release);
    });
  }
  // Decode-ahead distance is only meaningful when a window exists: in
  // synchronous mode (depth 0) the whole batch is decoded at submit time and
  // `enqueued_ - cursor_` would misreport it as read-ahead.
  if (options_.depth > 0) {
    stats_.max_ahead = std::max(stats_.max_ahead, enqueued_ - cursor_);
  }
}

bool DecodePrefetcher::TryClaim(size_t index, uint64_t generation) {
  std::atomic<uint64_t>& word = claims_[index];
  uint64_t seen = word.load(std::memory_order_relaxed);
  // Claimants of one slot are the live batch's task and its coordinator (same
  // generation) plus stale tasks (lower generations, which always find the
  // word at or above their own): one CAS decides.
  return seen < generation &&
         word.compare_exchange_strong(seen, generation, std::memory_order_relaxed);
}

void DecodePrefetcher::MarkReadyLocked(size_t index) {
  common::Check(index < enqueued_ && !slots_[index].ready,
                "prefetch read performed twice");
  slots_[index].ready = true;
}

void DecodePrefetcher::DrainCompletionsLocked() {
  size_t index = 0;
  while (completions_->TryPop(index)) {
    MarkReadyLocked(index);
  }
}

bool DecodePrefetcher::HelpOneLocked(std::unique_lock<std::mutex>& lock,
                                     size_t index, Help help) {
  // Every candidate is enqueued (index < cursor_ <= enqueued_). Slots read
  // inline (a workerless shard pool) are ready without ever being claimed.
  const auto claim = [&](size_t i) {
    return !slots_[i].ready && TryClaim(i, generation_);
  };
  size_t target = index;
  if (!claim(target)) {
    if (help == Help::kAwaitedOnly) return false;
    // The worker pops the window from the front; take it from the back so
    // the two lanes meet instead of racing for the same slots.
    target = enqueued_;
    while (target > cursor_ && !claim(target - 1)) --target;
    if (target == cursor_) return false;
    --target;
  }
  // The slot is ours; only this thread rebuilds slots_, so reading it
  // without mu_ is safe, and observers can run meanwhile.
  lock.unlock();
  slots_[target].store->PerformRead(slots_[target].plan);
  lock.lock();
  MarkReadyLocked(target);
  stats_.helped_reads += 1;
  return true;
}

void DecodePrefetcher::WaitReadyLocked(std::unique_lock<std::mutex>& lock,
                                       size_t index, Help help) {
  DrainCompletionsLocked();
  int idle_spins = 0;
  while (!slots_[index].ready) {
    if (HelpOneLocked(lock, index, help)) {
      DrainCompletionsLocked();
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < common::Parker::kSpinIterations) {
      // Spin without mu_ so observers (Cached) are not starved, and yield
      // so the decode worker gets the core on an oversubscribed host.
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      DrainCompletionsLocked();
      continue;
    }
    idle_spins = 0;
    lock.unlock();
    {
      common::Parker::WaitGuard guard(ready_parker_);
      // Registered as a waiter — drain once more before sleeping. A task
      // that pushed after this point sees our registration past its fence
      // and will notify.
      lock.lock();
      DrainCompletionsLocked();
      const bool ready = slots_[index].ready;
      lock.unlock();
      if (!ready) guard.Wait();
    }
    lock.lock();
    DrainCompletionsLocked();
  }
}

void DecodePrefetcher::WaitFrame(size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  common::Check(index < slots_.size(), "prefetch wait past the batch");
  common::Check(index == cursor_,
                "prefetched frames must be consumed in batch order");
  // Open the window *before* blocking: frames behind `index` keep decoding
  // while the caller (and we) wait for this one.
  cursor_ = index + 1;
  EnqueueAheadLocked();
  WaitReadyLocked(lock, index, Help::kAwaitedOnly);
}

void DecodePrefetcher::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (cursor_ < slots_.size()) {
    const size_t index = cursor_++;
    EnqueueAheadLocked();
    WaitReadyLocked(lock, index, Help::kWindow);
  }
}

bool DecodePrefetcher::Cached(video::FrameId frame) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(frame);
  if (it == cache_.end()) return false;
  if (slots_[it->second].ready) return true;
  // A completion may be queued but not yet consumed; drain so the answer
  // reflects every decode that has actually finished. Pops are safe from
  // any thread, and the ready bits are covered by mu_ held here.
  const_cast<DecodePrefetcher*>(this)->DrainCompletionsLocked();
  return slots_[it->second].ready;
}

}  // namespace query
}  // namespace exsample
