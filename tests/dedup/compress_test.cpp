// The compressor's output is pinned byte for byte to the plain greedy
// window scan it replaced: the scan is kept here as the reference, and
// both run over the Fig 6(d) inputs and over random payloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "dedup/dedup.hpp"

namespace armbar::dedup {
namespace {

// The scan compress() used before it indexed positions by their first six
// bytes: try every earlier position in the 4 KiB window, keep the first
// strictly longest match, stop at 64 bytes.
std::vector<std::uint8_t> reference_compress(const std::uint8_t* p, std::size_t n) {
  constexpr std::size_t kWindowSize = 4096;
  constexpr std::size_t kMinMatch = 6;
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 16);
  std::size_t i = 0;
  std::size_t lit_start = 0;

  auto flush_literals = [&](std::size_t end) {
    std::size_t s = lit_start;
    while (s < end) {
      const std::size_t len = std::min<std::size_t>(end - s, 0xffff);
      out.push_back(0x00);
      out.push_back(static_cast<std::uint8_t>(len & 0xff));
      out.push_back(static_cast<std::uint8_t>(len >> 8));
      out.insert(out.end(), p + s, p + s + len);
      s += len;
    }
  };

  while (i < n) {
    std::size_t best_len = 0, best_dist = 0;
    const std::size_t w0 = i > kWindowSize ? i - kWindowSize : 0;
    if (n - i >= kMinMatch) {
      for (std::size_t cand = w0; cand < i; ++cand) {
        std::size_t len = 0;
        const std::size_t max_len = std::min<std::size_t>(n - i, 0xffff);
        while (len < max_len && p[cand + len] == p[i + len] && cand + len < i + len)
          ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - cand;
        }
        if (best_len >= 64) break;
      }
    }
    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.push_back(0x01);
      out.push_back(static_cast<std::uint8_t>(best_dist & 0xff));
      out.push_back(static_cast<std::uint8_t>(best_dist >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len & 0xff));
      out.push_back(static_cast<std::uint8_t>(best_len >> 8));
      i += best_len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
  return out;
}

class Fig6dInput : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fig6dInput, CompressMatchesReferenceScanOnEveryChunk) {
  // Exactly what fig6d_dedup feeds stage 3: run_pipeline's chunking of
  // make_input(size, 0.5, 17).
  const auto data = make_input(GetParam() << 20, 0.5, 17);
  const auto chunks = chunk_input(data, 256, 1024, 8192);
  ASSERT_FALSE(chunks.empty());
  for (const Chunk& c : chunks) {
    const std::uint8_t* p = data.data() + c.offset;
    ASSERT_EQ(compress(p, c.length), reference_compress(p, c.length))
        << "chunk at offset " << c.offset << ", length " << c.length;
  }
}

INSTANTIATE_TEST_SUITE_P(Mib, Fig6dInput, ::testing::Values(1, 2, 4));

TEST(Compress, MatchesReferenceScanOnRandomPayloads) {
  Rng rng(2024);
  // Short payloads, payloads past the window, and alphabets from two
  // symbols (long overlapping matches, the 64-byte early stop) to all 256.
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = trial < 40 ? static_cast<std::size_t>(trial)
                                     : 1 + rng.below(trial % 10 == 0 ? 20000 : 3000);
    const std::uint64_t alphabet = 1 + rng.below(trial % 3 == 0 ? 2 : 256);
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(alphabet));
    // Splice in copies of earlier stretches so distant matches exist too.
    for (std::size_t k = 0; n > 64 && k < 8; ++k) {
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(80, n / 2));
      const std::size_t from = rng.below(n - len);
      const std::size_t to = rng.below(n - len);
      std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(from), len,
                  buf.begin() + static_cast<std::ptrdiff_t>(to));
    }
    const auto got = compress(buf.data(), n);
    ASSERT_EQ(got, reference_compress(buf.data(), n))
        << "trial " << trial << ", " << n << " bytes, alphabet " << alphabet;
    ASSERT_EQ(decompress(got), buf);
  }
}

}  // namespace
}  // namespace armbar::dedup
