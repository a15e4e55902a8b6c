// `shm`: for each channel kind (Q, RB, RB-P), a fresh segment with capacity
// 256 driven through shmsvc::Producer::produce / shmsvc::Consumer::pop by
// one producer and two consumer threads in this process, as run_spmc in
// tests/shmsvc/channel_test.cpp does. Phase 1 is a closed loop: the
// producer runs as fast as it can. Phase 2 is an open loop at a fixed
// 250 000 records/s, timing each record from its scheduled send to its
// delivery. The only workload that touches shmsvc; it touches neither the
// simulator nor the checker.
//
// Operation: one record. It fails when it is not delivered exactly once
// with payload payload_at(seed, ticket). A segment left in /dev/shm after
// the run counts as one more failed operation.
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>

#include <array>
#include <atomic>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/check.hpp"
#include "shmsvc/channel.hpp"
#include "shmsvc/seg.hpp"

namespace perfbench {
namespace {

namespace shm = armbar::shmsvc;

struct KindInfo {
  shm::ChannelKind kind;
  const char* key;
};
constexpr std::array<KindInfo, 3> kKinds = {{{shm::ChannelKind::kLockQueue, "q"},
                                             {shm::ChannelKind::kRing, "rb"},
                                             {shm::ChannelKind::kPilotRing, "rbp"}}};
constexpr std::uint32_t kCapacity = 256;
constexpr std::uint32_t kConsumers = 2;
constexpr double kOpenRate = 250000.0;  ///< records/s in the open loop
constexpr std::uint64_t kClosedRecords = 400'000;
constexpr std::uint64_t kOpenRecords = 50'000;

/// CPUs for the producer and the consumers: one each, so the scheduler's
/// placement (two spinning threads sharing a CPU, migrations) does not
/// change from run to run. Empty (no pinning) on a host with fewer CPUs
/// than threads + 1.
std::vector<int> thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.size() < 2 + kConsumers) return {};
  return std::vector<int>(cpus.end() - (1 + kConsumers), cpus.end());
}

void pin_to(const std::vector<int>& cpus, std::size_t i) {
  if (i >= cpus.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct PhaseResult {
  double wall_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t delivered = 0, gaps = 0, misdelivered = 0;
  std::uint64_t undelivered = 0, duplicated = 0;
  std::uint64_t barriers = 0, full_barriers = 0, futex_waits = 0;
  std::vector<double> latency_us;  ///< open loop: scheduled send -> delivery
  std::vector<double> late_us;     ///< open loop: how late each send started
  std::vector<double> produce_ns, pop_ns;  ///< traced only
};

/// One phase over a fresh segment: 1 producer + kConsumers consumers until
/// the produce target is delivered, then the exactly-once audit.
PhaseResult run_phase(shm::Segment& seg, bool open_loop, bool traced) {
  PhaseResult r;
  r.records = seg.header().records;
  const std::uint64_t seed = seg.header().seed;
  const shm::ChannelTuning tuning;
  const std::int64_t period_ns = static_cast<std::int64_t>(1e9 / kOpenRate);
  // Every thread starts on this instant; the open loop's schedule hangs
  // off it, so no thread needs a value another thread publishes later.
  const std::int64_t start_ns = now_ns() + 2'000'000;
  std::vector<std::atomic<std::int64_t>> delivered_at(open_loop ? r.records : 0);
  if (open_loop) r.late_us.resize(r.records);
  // A thread's exception (a CheckFailure or a StallError) is carried to
  // the caller instead of ending the process.
  std::mutex error_mu;
  std::string error;
  const auto guarded = [&](auto body) {
    return [&, body] {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error.empty()) error = e.what();
      }
    };
  };

  const std::vector<int> cpus = thread_cpus();
  std::thread producer(guarded([&] {
    pin_to(cpus, 0);
    shm::Peer me(seg, shm::Role::kProducer);
    shm::Producer prod(seg, 0, me, tuning);
    while (now_ns() < start_ns) shm::cpu_relax();
    for (;;) {
      const std::uint64_t pos = prod.position();
      if (open_loop && pos < r.records) {
        const std::int64_t due = start_ns + static_cast<std::int64_t>(pos) * period_ns;
        std::int64_t now = now_ns();
        while (now < due) {
          shm::cpu_relax();
          now = now_ns();
        }
        r.late_us[pos] = static_cast<double>(now - due) * 1e-3;
      }
      const auto t0 = traced ? Clock::now() : Clock::time_point{};
      const bool more = prod.produce(shm::payload_at(seed, pos));
      if (!more) break;
      if (traced)
        r.produce_ns.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
  }));
  std::vector<std::vector<double>> pop_ns(kConsumers);
  std::atomic<std::uint64_t> delivered{0}, gaps{0}, misdelivered{0};
  std::vector<std::thread> consumers;
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back(guarded([&, c] {
      pin_to(cpus, 1 + c);
      shm::Peer me(seg, shm::Role::kConsumer);
      shm::Consumer cons(seg, 0, me, tuning);
      for (;;) {
        std::uint32_t payload = 0;
        std::uint64_t ticket = 0;
        const auto t0 = traced ? Clock::now() : Clock::time_point{};
        const shm::Consumer::Pop got = cons.pop(&payload, &ticket);
        if (got == shm::Consumer::Pop::kDone) return;
        if (traced)
          pop_ns[c].push_back(
              std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
        if (got == shm::Consumer::Pop::kGap) {
          gaps.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (open_loop && ticket < r.records)
          delivered_at[ticket].store(now_ns(), std::memory_order_relaxed);
        if (payload != shm::payload_at(seed, ticket))
          misdelivered.fetch_add(1, std::memory_order_relaxed);
        delivered.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }
  producer.join();
  for (std::thread& t : consumers) t.join();
  if (!error.empty()) throw std::runtime_error(error);
  r.wall_s = static_cast<double>(now_ns() - start_ns) * 1e-9;

  r.delivered = delivered.load();
  r.gaps = gaps.load();
  r.misdelivered = misdelivered.load();
  const std::atomic<std::uint8_t>* marks = seg.marks(0);
  for (std::uint64_t t = 0; t < r.records; ++t) {
    const std::uint8_t m = marks[t].load(std::memory_order_relaxed);
    if (m == 0) ++r.undelivered;
    else if (m != shm::kMarkDelivered) ++r.duplicated;
  }
  const shm::ChannelCtrl& ctrl = seg.ctrl(0);
  r.barriers = ctrl.barriers.load();
  r.full_barriers = ctrl.full_barriers.load();
  r.futex_waits = ctrl.futex_waits.load();
  if (open_loop) {
    r.latency_us.reserve(r.records);
    for (std::uint64_t t = 0; t < r.records; ++t) {
      const std::int64_t at = delivered_at[t].load(std::memory_order_relaxed);
      const std::int64_t due = start_ns + static_cast<std::int64_t>(t) * period_ns;
      r.latency_us.push_back(at == 0 ? std::numeric_limits<double>::infinity()
                                     : static_cast<double>(at - due) * 1e-3);
    }
  }
  for (auto& v : pop_ns) r.pop_ns.insert(r.pop_ns.end(), v.begin(), v.end());
  return r;
}

shm::Segment make_segment(const KindInfo& k, bool open_loop, std::uint64_t records,
                          std::uint64_t seed) {
  shm::SegmentConfig cfg;
  cfg.name = std::string("perfbench-") + k.key + (open_loop ? "-open" : "-closed");
  cfg.kind = k.kind;
  cfg.channels = 1;
  cfg.capacity = kCapacity;
  cfg.records = records;
  cfg.seed = seed;
  return shm::Segment::create(cfg);
}

/// Segments of ours still in /dev/shm ("armbar.<user>.<pid>.*").
std::vector<std::string> leftover_segments() {
  std::vector<std::string> found;
  const std::string prefix = shm::full_segment_name("").substr(1);
  if (DIR* d = opendir("/dev/shm")) {
    while (const dirent* e = readdir(d))
      if (std::string(e->d_name).rfind(prefix, 0) == 0) found.push_back(e->d_name);
    closedir(d);
  }
  return found;
}

/// One pass: the closed then the open phase of every kind, each over its
/// own segment (index 2*k for closed, 2*k+1 for open).
struct Pass {
  std::array<PhaseResult, 3> closed, open;
};

}  // namespace

RunOutput run_shm(const Params& p) {
  RunOutput out;
  const std::uint64_t closed_records =
      p.shm_closed_records != 0 ? p.shm_closed_records : kClosedRecords;
  const std::uint64_t open_records =
      p.shm_open_records != 0 ? p.shm_open_records : kOpenRecords;
  const std::uint64_t seed = 0x5eed0000ull + p.seed;
  const auto previous = armbar::set_check_fail_handler(&armbar::throw_check_failure);

  const auto create_all = [&] {
    std::vector<shm::Segment> segs;
    for (const KindInfo& k : kKinds) {
      segs.push_back(make_segment(k, false, closed_records, seed));
      segs.push_back(make_segment(k, true, open_records, seed));
    }
    return segs;
  };
  std::vector<shm::Segment> segs;
  std::vector<Pass> passes;
  try {
    out.metric("setup_s", median_setup_s([&] {
                 for (shm::Segment& s : segs) s.unlink();
                 segs = create_all();
               }),
               "s");
    const auto t0 = Clock::now();
    for (;;) {
      const auto pass_start = Clock::now();
      if (segs.empty()) segs = create_all();
      Pass pass;
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        pass.closed[k] = run_phase(segs[2 * k], false, p.traced);
        segs[2 * k].unlink();
        pass.open[k] = run_phase(segs[2 * k + 1], true, p.traced);
        segs[2 * k + 1].unlink();
      }
      segs.clear();
      passes.push_back(std::move(pass));
      // Whole passes only: start another while one more still fits.
      const double pass_s = seconds_between(pass_start, Clock::now());
      if (seconds_between(t0, Clock::now()) + pass_s > p.seconds) break;
    }
  } catch (const std::exception& e) {
    out.fail(std::string("shm: ") + e.what());
    out.check(false, "every phase ran to completion");
  }
  for (shm::Segment& s : segs) s.unlink();
  armbar::set_check_fail_handler(previous);

  // Exactly-once audit and barrier accounting, every phase of every pass.
  bool barriers_exact = true;
  for (const Pass& pass : passes)
    for (std::size_t k = 0; k < kKinds.size(); ++k)
      for (const PhaseResult* ph : {&pass.closed[k], &pass.open[k]}) {
        out.attempted += ph->records;
        const std::uint64_t bad = ph->undelivered + ph->duplicated +
                                  ph->misdelivered + ph->gaps;
        if (bad != 0)
          out.fail(std::string(kKinds[k].key) + ": " + std::to_string(bad) +
                       " records not delivered exactly once with their payload",
                   bad);
        out.check(ph->delivered == ph->records,
                  std::string(kKinds[k].key) + ": produced = delivered");
        const shm::ChannelKind kind = kKinds[k].kind;
        if (kind == shm::ChannelKind::kRing)
          barriers_exact &= ph->barriers == 4 * ph->records && ph->full_barriers == 0;
        else if (kind == shm::ChannelKind::kPilotRing)
          barriers_exact &= ph->barriers == ph->records && ph->full_barriers == 0;
        else
          barriers_exact &= ph->full_barriers > 0 && ph->barriers == ph->full_barriers;
      }
  out.check(barriers_exact,
            "barriers per record: RB-P exactly 1, RB exactly 4, only Q pays full");
  const std::vector<std::string> left = leftover_segments();
  for (const std::string& name : left) {
    out.fail("leftover segment /dev/shm/" + name);
    ::shm_unlink(("/" + name).c_str());
  }
  out.check(left.empty(), "no segment left in /dev/shm");
  if (passes.empty()) return out;
  // Each metric is the median over passes of that pass's value.
  const auto over_passes = [&](auto per_pass) {
    std::vector<double> v;
    for (const Pass& pass : passes) v.push_back(per_pass(pass));
    return median(std::move(v));
  };
  const double closed_wall = over_passes([](const Pass& pass) {
    double s = 0.0;
    for (const PhaseResult& ph : pass.closed) s += ph.wall_s;
    return s;
  });
  out.metric("wall_s", closed_wall, "s");
  out.metric("ops_per_s",
             static_cast<double>(closed_records * kKinds.size()) / closed_wall, "1/s");

  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    const std::string key = std::string("shm.") + kKinds[k].key + ".";
    if (!p.traced) {
      // Untraced figures: no per-call clock reads perturb them.
      out.metric(key + "sat_mrec_per_s", over_passes([&](const Pass& q) {
                   return static_cast<double>(q.closed[k].records) /
                          q.closed[k].wall_s * 1e-6;
                 }),
                 "Mrec/s");
      out.metric(key + "lat_us_p50", over_passes([&](const Pass& q) {
                   return percentile(q.open[k].latency_us, 50);
                 }),
                 "us");
      out.metric(key + "lat_us_p99", over_passes([&](const Pass& q) {
                   return percentile(q.open[k].latency_us, 99);
                 }),
                 "us");
      continue;
    }
    const auto pct = [&](std::vector<double> PhaseResult::*field, double at) {
      return over_passes([&](const Pass& q) { return percentile(q.closed[k].*field, at); });
    };
    out.metric(key + "produce_ns_p50", pct(&PhaseResult::produce_ns, 50), "ns");
    out.metric(key + "produce_ns_p99", pct(&PhaseResult::produce_ns, 99), "ns");
    out.metric(key + "pop_ns_p50", pct(&PhaseResult::pop_ns, 50), "ns");
    out.metric(key + "pop_ns_p99", pct(&PhaseResult::pop_ns, 99), "ns");
    out.metric(key + "barriers_per_rec", over_passes([&](const Pass& q) {
                 return static_cast<double>(q.closed[k].barriers) /
                        static_cast<double>(q.closed[k].records);
               }),
               "count");
    out.metric(key + "full_barriers_per_rec", over_passes([&](const Pass& q) {
                 return static_cast<double>(q.closed[k].full_barriers) /
                        static_cast<double>(q.closed[k].records);
               }),
               "count");
    out.metric(key + "futex_waits", over_passes([&](const Pass& q) {
                 return static_cast<double>(q.open[k].futex_waits);
               }),
               "count");
    out.metric(key + "gen_late_us_p99", over_passes([&](const Pass& q) {
                 return percentile(q.open[k].late_us, 99);
               }),
               "us");
  }
  return out;
}

}  // namespace perfbench
