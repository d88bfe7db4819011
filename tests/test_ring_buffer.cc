#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/parking.h"

namespace exsample {
namespace common {
namespace {

// --- Single-threaded semantics ---------------------------------------------

TEST(MpscRingBufferTest, PushPopRoundTrip) {
  MpscRingBuffer<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  EXPECT_TRUE(ring.TryPush(13));
  int out = 0;
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 13);
  EXPECT_FALSE(ring.TryPop(out));
}

TEST(MpscRingBufferTest, FillsToCapacityExactly) {
  MpscRingBuffer<int> ring(8);
  size_t pushed = 0;
  while (ring.TryPush(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, ring.Capacity());
  int out = 0;
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 0);  // FIFO from a single producer.
  EXPECT_TRUE(ring.TryPush(-1));  // The freed cell is reusable.
}

TEST(MpscRingBufferTest, WrapsAroundManyTimesInOrder) {
  MpscRingBuffer<uint64_t> ring(4);
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  for (int round = 0; round < 1000; ++round) {
    const size_t burst = 1 + (round % ring.Capacity());
    for (size_t i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.TryPush(uint64_t{next_push}));
      ++next_push;
    }
    uint64_t out = 0;
    for (size_t i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.TryPop(out));
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(MpscRingBufferTest, MoveOnlyElements) {
  MpscRingBuffer<std::unique_ptr<int>> ring(4);
  ASSERT_TRUE(ring.TryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// --- Multi-threaded fuzz ----------------------------------------------------

// MPSC fuzz: several producers push disjoint tagged sequences through a
// small ring while one consumer drains. Every element must arrive exactly
// once, and each producer's own sequence must arrive in order (per-producer
// FIFO is what the task queues rely on).
TEST(MpscRingBufferFuzzTest, ManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 30000;
  MpscRingBuffer<uint64_t> ring(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (uint64_t v = 0; v < kPerProducer;) {
        const uint64_t tagged = (static_cast<uint64_t>(p) << 32) | v;
        if (ring.TryPush(uint64_t{tagged})) {
          ++v;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> next_from(kProducers, 0);
  uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    uint64_t out = 0;
    if (!ring.TryPop(out)) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(out >> 32);
    const uint64_t v = out & 0xFFFFFFFFull;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(v, next_from[p]) << "producer " << p << " reordered";
    ++next_from[p];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ring.Empty());
}

// MPSC with *multiple consumers* (the thread pool steals from any ring):
// every element arrives exactly once across consumers.
TEST(MpscRingBufferFuzzTest, ManyProducersManyConsumers) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr uint64_t kPerProducer = 20000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  MpscRingBuffer<uint64_t> ring(16);
  std::atomic<uint64_t> consumed{0};
  std::vector<std::atomic<uint32_t>> seen(kTotal);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      for (uint64_t v = 0; v < kPerProducer;) {
        const uint64_t id = static_cast<uint64_t>(p) * kPerProducer + v;
        if (ring.TryPush(uint64_t{id})) {
          ++v;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t out = 0;
      while (consumed.load(std::memory_order_acquire) < kTotal) {
        if (ring.TryPop(out)) {
          seen[out].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "element " << i;
  }
  EXPECT_TRUE(ring.Empty());
}

// --- Parker (the rings' companion wakeup) -----------------------------------

// Shutdown-drain shape: a consumer parks when the ring runs dry; the
// producer pushes a poison marker per consumer and wakes them. No consumer
// may sleep through a wakeup (the Dekker pairing in Parker), and every
// pushed element must be drained before the consumers exit.
TEST(ParkerTest, NoLostWakeupsUnderProduceParkRaces) {
  constexpr uint64_t kItems = 50000;
  constexpr uint64_t kPoison = ~uint64_t{0};
  constexpr int kConsumers = 2;
  MpscRingBuffer<uint64_t> ring(8);
  Parker parker;
  std::atomic<uint64_t> drained{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        uint64_t out = 0;
        if (ring.TryPop(out)) {
          if (out == kPoison) return;
          drained.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Parker::WaitGuard guard(parker);
        if (!ring.Empty()) continue;  // Re-check after registering.
        guard.Wait();
      }
    });
  }

  for (uint64_t v = 0; v < kItems;) {
    if (ring.TryPush(uint64_t{v})) {
      ++v;
      parker.WakeOne();
    } else {
      std::this_thread::yield();
    }
  }
  for (int c = 0; c < kConsumers;) {
    if (ring.TryPush(uint64_t{kPoison})) {
      ++c;
      parker.WakeAll();
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : consumers) t.join();
  EXPECT_EQ(drained.load(), kItems);
  EXPECT_EQ(parker.Waiters(), 0u);
}

}  // namespace
}  // namespace common
}  // namespace exsample
