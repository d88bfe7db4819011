// Golden values for the library's random stream.
//
// The bit-identity suites elsewhere compare one configuration against
// another (batched vs. unbatched, sharded vs. solo, ...), so a change that
// shifted every configuration's stream at once would pass all of them. These
// tests pin absolute values instead: the first 64 outputs of the serial
// samplers, and a 300-pick ThompsonPolicy sequence (keyed draws, one key per
// pick) over a BDD-MOT-sized chunk table. A failure here means the random stream changed,
// which changes every trace the library produces.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/belief_policy.h"
#include "core/chunk_stats.h"

namespace exsample {
namespace {

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// FNV-1a over the little-endian bytes of each word.
uint64_t Digest(const std::vector<uint64_t>& words) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t word : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Bit patterns of the first 64 draws from a fresh generator.
std::vector<uint64_t> Stream(uint64_t seed,
                             const std::function<double(common::Rng&)>& draw) {
  common::Rng rng(seed);
  std::vector<uint64_t> out;
  for (int i = 0; i < 64; ++i) out.push_back(Bits(draw(rng)));
  return out;
}

struct Golden {
  uint64_t first;
  uint64_t last;
  uint64_t digest;
};

void ExpectGolden(const std::vector<uint64_t>& words, const Golden& golden) {
  EXPECT_EQ(words.front(), golden.first);
  EXPECT_EQ(words.back(), golden.last);
  EXPECT_EQ(Digest(words), golden.digest);
}

TEST(RngGoldenTest, NextDouble) {
  ExpectGolden(Stream(101, [](common::Rng& rng) { return rng.NextDouble(); }),
               {0x3fe6f5989e4a128aULL, 0x3fe41f00c9999242ULL, 0x7df1871588f23ff7ULL});
}

TEST(RngGoldenTest, Normal) {
  ExpectGolden(Stream(102, [](common::Rng& rng) { return rng.Normal(); }),
               {0xbff027892f21c993ULL, 0xbfe2d7ce6ace3234ULL, 0x95e17e076c65046cULL});
}

struct GammaGolden {
  double shape;
  double rate;
  Golden golden;
};

class RngGammaGoldenTest : public ::testing::TestWithParam<GammaGolden> {};

TEST_P(RngGammaGoldenTest, First64Draws) {
  const GammaGolden param = GetParam();
  ExpectGolden(Stream(103,
                      [&](common::Rng& rng) { return rng.Gamma(param.shape, param.rate); }),
               param.golden);
}

// Shapes straddle the U^{1/shape} boost (shape < 1) and the plain
// Marsaglia–Tsang path; 0.1 is the flat prior of an N1 = 0 chunk.
INSTANTIATE_TEST_SUITE_P(
    Shapes, RngGammaGoldenTest,
    ::testing::Values(
        GammaGolden{0.1, 1.0,
                    {0x3ee4f2d0c5aff1a7ULL, 0x3ca91084313d83c8ULL, 0x0e552bc9fe0def1fULL}},
        GammaGolden{0.1, 37.0,
                    {0x3e921e1c57f21d1bULL, 0x3c55ad6b68db418aULL, 0x6969c9ae31d58331ULL}},
        GammaGolden{0.5, 1.0,
                    {0x3fdab2160ac136c9ULL, 0x3fada185f5716662ULL, 0xb30793065b97e1f6ULL}},
        GammaGolden{0.5, 37.0,
                    {0x3f87168f9a994423ULL, 0x3f59a073db31a4a8ULL, 0xe8b3f83459405e04ULL}},
        GammaGolden{1.0, 1.0,
                    {0x3fac7fa034f6e3e9ULL, 0x400019f0306eac29ULL, 0xb0bf3444f7dc6006ULL}},
        GammaGolden{1.0, 37.0,
                    {0x3f58a5bafd5fe7b5ULL, 0x3fabd9d6d050bb16ULL, 0xb3a8a2242f5db3d2ULL}},
        GammaGolden{1.1, 1.0,
                    {0x3fb50ae377080ddbULL, 0x4001f2c336352c08ULL, 0xeab79f63f1a45578ULL}},
        GammaGolden{1.1, 37.0,
                    {0x3f6232ee3d6ebfe0ULL, 0x3faf0bb287473768ULL, 0xa06c38e6c8b4e181ULL}},
        GammaGolden{5.1, 1.0,
                    {0x4002c385c81d5949ULL, 0x402412c8fee7657bULL, 0x417ad65e52d10757ULL}},
        GammaGolden{5.1, 37.0,
                    {0x3fb03a65dd812aa0ULL, 0x3fd15c5ace9e9cf5ULL, 0xa2b76481403ff1abULL}},
        GammaGolden{100.0, 1.0,
                    {0x4055a1955a2c388fULL, 0x405dcfbe24f75a4eULL, 0xe34c3f77e30d1aacULL}},
        GammaGolden{100.0, 37.0,
                    {0x4002b542e634153dULL, 0x4009c86d190d472fULL, 0x90d9b2ce7ba00923ULL}}),
    [](const ::testing::TestParamInfo<GammaGolden>& info) {
      return "shape" + std::to_string(static_cast<int>(info.param.shape * 10)) + "rate" +
             std::to_string(static_cast<int>(info.param.rate));
    });

TEST(ThompsonGoldenTest, PickSequenceOver1600Chunks) {
  // 1600 chunks as in BDD MOT, a few exhausted chunks, a warm minority, and
  // outcomes that move N1 both up and down (below zero for some chunks).
  constexpr size_t kChunks = 1600;
  core::ChunkStatsTable stats(kChunks);
  core::ThompsonPolicy policy;
  common::Rng pick_rng(2024);
  common::Rng world(7);
  std::vector<bool> eligible(kChunks, true);
  for (size_t j = 0; j < kChunks; j += 97) eligible[j] = false;
  for (size_t j = 0; j < kChunks; j += 40) {
    for (int i = 0; i < 8; ++i) stats.Update(j, i % 2, 0);
  }
  std::vector<uint64_t> picks;
  for (int i = 0; i < 300; ++i) {
    const size_t j = policy.PickChunk(stats, eligible, pick_rng);
    picks.push_back(j);
    const size_t found = world.Bernoulli(j % 80 == 0 ? 0.5 : 0.05) ? 1 : 0;
    const size_t once = world.Bernoulli(0.4) ? 1 : 0;
    stats.Update(j, found, once);
  }
  const std::vector<uint64_t> head(picks.begin(), picks.begin() + 16);
  EXPECT_EQ(head, (std::vector<uint64_t>{460, 137, 1587, 1333, 1238, 1212, 879, 943, 813,
                                         746, 161, 828, 348, 372, 751, 568}));
  // The generator's state after the sequence: each pick took one key.
  picks.push_back(pick_rng.NextU64());
  ExpectGolden(picks, {0x00000000000001ccULL, 0xd366d2fa645d3c0dULL, 0x666dff22dc79cfc2ULL});
}

}  // namespace
}  // namespace exsample
