#ifndef EXSAMPLE_COMMON_RING_BUFFER_H_
#define EXSAMPLE_COMMON_RING_BUFFER_H_

/// \file ring_buffer.h
/// \brief Bounded lock-free ring buffer for the engine's hot handoffs.
///
/// MpscRingBuffer<T> is fixed-capacity and allocation-free after
/// construction, with indices padded to separate cache lines so a
/// producer and a consumer never false-share. It takes many producers,
/// and pops are safe from multiple consumer threads too (the thread
/// pool's workers steal from each other's rings). Bounded Vyukov-style
/// queue: each cell carries a sequence number; producers claim a cell
/// with one CAS on the tail, consumers with one CAS on the head, and the
/// cell sequence hands the slot back and forth with release/acquire
/// ordering only.
///
/// Capacity is rounded up to the next power of two so index wrapping
/// is a mask, not a divide. The ring never blocks: TryPush fails when
/// full, TryPop fails when empty, and callers layer waiting/parking on
/// top (see parking.h). Determinism note: these queues carry *work*,
/// never *results ordering* — batch planning stays on the coordinator,
/// so swapping a mutex-guarded deque for a ring cannot change a trace.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace exsample {
namespace common {

/// \brief Cache-line size used to pad producer/consumer state apart.
///
/// Hardcoded 64: std::hardware_destructive_interference_size is still
/// flaky across toolchains (gcc warns under -Werror when it is used in
/// ABI-affecting positions), and 64 is right for every x86/ARM server
/// part this engine targets.
inline constexpr std::size_t kCacheLineSize = 64;

/// \brief Round \p n up to the next power of two (minimum 2).
constexpr std::size_t RoundUpPowerOfTwo(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// \brief Bounded multi-producer ring buffer with multi-consumer-safe
/// pops (Vyukov bounded queue).
///
/// Any number of threads may push and any number may pop concurrently.
/// Progress is lock-free in practice: each operation is one CAS on the
/// shared index plus release/acquire handoff through the cell's
/// sequence number; a stalled thread can delay only the slot it
/// claimed, never the whole queue.
template <typename T>
class MpscRingBuffer {
 public:
  /// \brief Create a ring holding at least \p min_capacity elements.
  explicit MpscRingBuffer(std::size_t min_capacity)
      : mask_(RoundUpPowerOfTwo(min_capacity) - 1),
        cells_(mask_ + 1) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpscRingBuffer(const MpscRingBuffer&) = delete;
  MpscRingBuffer& operator=(const MpscRingBuffer&) = delete;

  /// \brief Usable capacity.
  std::size_t Capacity() const { return mask_ + 1; }

  /// \brief Enqueue \p value from any thread. Returns false if full.
  bool TryPush(T&& value) {
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[tail & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(tail);
      if (dif == 0) {
        // Cell is free for this ticket; claim it with one CAS.
        if (tail_.compare_exchange_weak(tail, tail + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.sequence.store(tail + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `tail`; retry with the fresh ticket.
      } else if (dif < 0) {
        // Cell still holds an element a lap behind: the queue is full.
        return false;
      } else {
        tail = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// \brief Dequeue into \p out from any thread. Returns false if empty.
  bool TryPop(T& out) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[head & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(head + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(head, head + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(cell.value);
          // Release the cell for the producer one lap ahead.
          cell.sequence.store(head + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        // Cell not yet published: the queue is empty.
        return false;
      } else {
        head = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// \brief Approximate occupancy; exact only when quiescent.
  std::size_t ApproxSize() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  /// \brief True when no element is visible. Same caveat as ApproxSize.
  bool Empty() const { return ApproxSize() == 0; }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  const std::size_t mask_;
  std::vector<Cell> cells_;

  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  char pad_end_[kCacheLineSize] = {};
};

}  // namespace common
}  // namespace exsample

#endif  // EXSAMPLE_COMMON_RING_BUFFER_H_
