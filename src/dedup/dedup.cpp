#include "dedup/dedup.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "common/check.hpp"

namespace armbar::dedup {

std::string to_string(ChannelKind k) {
  switch (k) {
    case ChannelKind::kLockQueue: return "Q";
    case ChannelKind::kRing: return "RB";
    case ChannelKind::kPilotRing: return "RB-P";
  }
  return "?";
}

namespace {

/// Q: a bounded queue protected by a ticket lock — stands in for the
/// original PARSEC lock-based communication buffer.
class LockQueueChannel final : public Channel {
 public:
  explicit LockQueueChannel(std::size_t capacity) : capacity_(capacity) {}

  void send(std::uint64_t v) override {
    for (;;) {
      lock_.lock();
      if (items_.size() < capacity_) {
        items_.push_back(v);
        lock_.unlock();
        return;
      }
      lock_.unlock();
      std::this_thread::yield();
    }
  }

  std::uint64_t recv() override {
    for (;;) {
      lock_.lock();
      if (!items_.empty()) {
        const std::uint64_t v = items_.front();
        items_.erase(items_.begin());
        lock_.unlock();
        return v;
      }
      lock_.unlock();
      std::this_thread::yield();
    }
  }

 private:
  locks::TicketLock lock_;
  std::vector<std::uint64_t> items_;
  const std::size_t capacity_;
};

class RingChannel final : public Channel {
 public:
  explicit RingChannel(std::size_t capacity) : ring_(capacity) {}
  void send(std::uint64_t v) override { ring_.push(v); }
  std::uint64_t recv() override { return ring_.pop(); }

 private:
  spsc::BarrierRing ring_;
};

class PilotRingChannel final : public Channel {
 public:
  explicit PilotRingChannel(std::size_t capacity) : ring_(capacity) {}
  void send(std::uint64_t v) override { ring_.push(v); }
  std::uint64_t recv() override { return ring_.pop(); }

 private:
  spsc::PilotRing ring_;
};

}  // namespace

std::unique_ptr<Channel> make_channel(ChannelKind kind, std::size_t capacity) {
  switch (kind) {
    case ChannelKind::kLockQueue:
      return std::make_unique<LockQueueChannel>(capacity);
    case ChannelKind::kRing:
      return std::make_unique<RingChannel>(capacity);
    case ChannelKind::kPilotRing:
      return std::make_unique<PilotRingChannel>(capacity);
  }
  ARMBAR_CHECK(false);
}

std::vector<std::uint8_t> make_input(std::size_t bytes, double duplicate_fraction,
                                     std::uint64_t seed) {
  Rng rng(seed);
  // A pool of reusable segments; duplicate_fraction of the stream is drawn
  // from the pool, the rest is fresh pseudo-random data with some byte-level
  // structure so the compressor has something to find. Segments are several
  // chunk lengths long so content-defined chunking can resynchronize inside
  // them and produce dedupable interior chunks.
  constexpr std::size_t kSegment = 8192;
  std::vector<std::vector<std::uint8_t>> pool;
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> seg(kSegment);
    std::uint8_t run = static_cast<std::uint8_t>(rng.next());
    for (auto& b : seg) {
      if (rng.chance(1, 8)) run = static_cast<std::uint8_t>(rng.next());
      b = run;
    }
    pool.push_back(std::move(seg));
  }

  std::vector<std::uint8_t> out;
  out.reserve(bytes);
  while (out.size() < bytes) {
    if (rng.unit() < duplicate_fraction) {
      const auto& seg = pool[rng.below(pool.size())];
      out.insert(out.end(), seg.begin(), seg.end());
    } else {
      std::uint8_t run = static_cast<std::uint8_t>(rng.next());
      for (std::size_t i = 0; i < kSegment && out.size() < bytes; ++i) {
        if (rng.chance(1, 6)) run = static_cast<std::uint8_t>(rng.next());
        out.push_back(run);
      }
    }
  }
  out.resize(bytes);
  return out;
}

std::vector<Chunk> chunk_input(const std::vector<std::uint8_t>& data,
                               std::size_t min_chunk, std::size_t avg_chunk,
                               std::size_t max_chunk) {
  ARMBAR_CHECK(min_chunk >= 64 && min_chunk <= avg_chunk && avg_chunk <= max_chunk);
  // True sliding-window polynomial hash over the last kWindow bytes: the
  // hash depends only on window content, so boundaries resynchronize inside
  // repeated content regardless of alignment — the property dedup needs.
  const std::uint64_t mask = avg_chunk - 1;  // avg must be a power of two
  ARMBAR_CHECK((avg_chunk & (avg_chunk - 1)) == 0);
  constexpr std::size_t kWindow = 48;
  constexpr std::uint64_t kMul = 0x100000001b3ULL;
  std::uint64_t mul_pow = 1;  // kMul^kWindow, to subtract the outgoing byte
  for (std::size_t i = 0; i < kWindow; ++i) mul_pow *= kMul;

  std::vector<Chunk> chunks;
  std::size_t start = 0;
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h = h * kMul + data[i];
    if (i >= kWindow) h -= mul_pow * data[i - kWindow];
    const std::size_t len = i + 1 - start;
    if (len < min_chunk) continue;
    if ((h & mask) == (mask & 0x1d3) || len >= max_chunk) {
      chunks.push_back({start, len, 0, false, {}});
      start = i + 1;
      // Note: the window itself is NOT reset — it slides across chunk
      // boundaries, which is what keeps boundaries content-defined.
    }
  }
  if (start < data.size()) chunks.push_back({start, data.size() - start, 0, false, {}});
  return chunks;
}

std::uint64_t fingerprint(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
// Compressed format: a sequence of ops.
//   0x00 len(2B) ...bytes          literal run
//   0x01 dist(2B) len(2B)          window match
constexpr std::size_t kWindowSize = 4096;
constexpr std::size_t kMinMatch = 6;
}  // namespace

std::vector<std::uint8_t> compress(const std::uint8_t* p, std::size_t n) {
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

  // Every match the greedy search can keep starts with the same kMinMatch
  // bytes as position i, so sort the positions by (those bytes, position)
  // once: the candidates for i are then the run of equal-prefix entries
  // just before i's own, in ascending position order.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_prefix;
  std::vector<std::size_t> rank;
  if (n >= kMinMatch) {
    by_prefix.reserve(n - kMinMatch + 1);
    for (std::size_t j = 0; j + kMinMatch <= n; ++j) {
      std::uint64_t key = 0;
      for (std::size_t k = 0; k < kMinMatch; ++k)
        key |= static_cast<std::uint64_t>(p[j + k]) << (8 * k);
      by_prefix.emplace_back(key, j);
    }
    std::sort(by_prefix.begin(), by_prefix.end());
    rank.resize(by_prefix.size());
    for (std::size_t r = 0; r < by_prefix.size(); ++r) rank[by_prefix[r].second] = r;
  }

  while (i < n) {
    // Greedy back-search in the window for the longest match: the earliest
    // of the longest, stopping once a match reaches 64 bytes.
    std::size_t best_len = 0, best_dist = 0;
    const std::size_t w0 = i > kWindowSize ? i - kWindowSize : 0;
    if (n - i >= kMinMatch) {
      const auto self = by_prefix.begin() + static_cast<std::ptrdiff_t>(rank[i]);
      const std::size_t max_len = std::min<std::size_t>(n - i, 0xffff);
      for (auto it = std::lower_bound(by_prefix.begin(), self,
                                      std::make_pair(self->first, w0));
           it != self; ++it) {
        const std::size_t cand = it->second;
        std::size_t len = kMinMatch;
        while (len < max_len && p[cand + len] == p[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - cand;
        }
        if (best_len >= 64) break;  // good enough; keep it cheap
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

std::vector<std::uint8_t> decompress(const std::vector<std::uint8_t>& in) {
  std::vector<std::uint8_t> out;
  std::size_t i = 0;
  while (i < in.size()) {
    const std::uint8_t op = in[i++];
    if (op == 0x00) {
      ARMBAR_CHECK(i + 2 <= in.size());
      const std::size_t len = in[i] | (in[i + 1] << 8);
      i += 2;
      ARMBAR_CHECK(i + len <= in.size());
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                 in.begin() + static_cast<std::ptrdiff_t>(i + len));
      i += len;
    } else {
      ARMBAR_CHECK(op == 0x01 && i + 4 <= in.size());
      const std::size_t dist = in[i] | (in[i + 1] << 8);
      const std::size_t len = in[i + 2] | (in[i + 3] << 8);
      i += 4;
      ARMBAR_CHECK(dist > 0 && dist <= out.size());
      for (std::size_t k = 0; k < len; ++k)
        out.push_back(out[out.size() - dist]);
    }
  }
  return out;
}

PipelineResult run_pipeline(const std::vector<std::uint8_t>& data,
                            ChannelKind kind, bool verify) {
  PipelineResult res;
  res.input_bytes = data.size();

  // Stage 1 (caller thread region below): chunking happens up front; the
  // parallel section then streams chunk indices through the pipeline, which
  // is the part Fig 6(d) measures.
  std::vector<Chunk> chunks = chunk_input(data, 256, 1024, 8192);

  auto c12 = make_channel(kind, 64);
  auto c23 = make_channel(kind, 64);
  auto c34 = make_channel(kind, 64);

  const auto t0 = std::chrono::steady_clock::now();

  // Stage 2: fingerprint + duplicate detection.
  std::thread s2([&] {
    std::unordered_set<std::uint64_t> seen;
    for (;;) {
      const std::uint64_t idx = c12->recv();
      if (idx == Channel::kEof) break;
      Chunk& c = chunks[idx];
      c.fingerprint = fingerprint(data.data() + c.offset, c.length);
      c.duplicate = !seen.insert(c.fingerprint).second;
      c23->send(idx);
    }
    c23->send(Channel::kEof);
  });

  // Stage 3: compress unique chunks.
  std::thread s3([&] {
    for (;;) {
      const std::uint64_t idx = c23->recv();
      if (idx == Channel::kEof) break;
      Chunk& c = chunks[idx];
      if (!c.duplicate) c.compressed = compress(data.data() + c.offset, c.length);
      c34->send(idx);
    }
    c34->send(Channel::kEof);
  });

  // Stage 4 runs in a thread too so the caller can feed stage 1.
  std::size_t unique = 0, dup = 0, bytes = 0;
  std::thread s4([&] {
    for (;;) {
      const std::uint64_t idx = c34->recv();
      if (idx == Channel::kEof) break;
      const Chunk& c = chunks[idx];
      if (c.duplicate) {
        ++dup;
        bytes += 10;  // a fingerprint reference record
      } else {
        ++unique;
        bytes += c.compressed.size();
      }
    }
  });

  // Stage 1: feed chunk indices in order.
  for (std::uint64_t i = 0; i < chunks.size(); ++i) c12->send(i);
  c12->send(Channel::kEof);

  s2.join();
  s3.join();
  s4.join();
  const auto t1 = std::chrono::steady_clock::now();

  res.unique_chunks = unique;
  res.duplicate_chunks = dup;
  res.compressed_bytes = bytes;
  res.seconds = std::chrono::duration<double>(t1 - t0).count();

  if (verify) {
    // Reconstruct the stream from unique chunks (duplicates refer to the
    // first occurrence by fingerprint) and checksum it against the input.
    std::unordered_map<std::uint64_t, const Chunk*> first;
    std::vector<std::uint8_t> rebuilt;
    rebuilt.reserve(data.size());
    for (const Chunk& c : chunks) {
      if (!c.duplicate) {
        first.emplace(c.fingerprint, &c);
        const auto plain = decompress(c.compressed);
        ARMBAR_CHECK_MSG(plain.size() == c.length, "decompress length mismatch");
        rebuilt.insert(rebuilt.end(), plain.begin(), plain.end());
      } else {
        auto it = first.find(c.fingerprint);
        ARMBAR_CHECK_MSG(it != first.end(), "duplicate before first occurrence");
        const Chunk& o = *it->second;
        rebuilt.insert(rebuilt.end(), data.begin() + static_cast<std::ptrdiff_t>(o.offset),
                       data.begin() + static_cast<std::ptrdiff_t>(o.offset + o.length));
      }
    }
    ARMBAR_CHECK_MSG(rebuilt.size() == data.size(), "rebuilt size mismatch");
    ARMBAR_CHECK_MSG(rebuilt == data, "dedup round-trip mismatch");
    res.checksum = fingerprint(rebuilt.data(), rebuilt.size());
  }
  return res;
}

}  // namespace armbar::dedup
