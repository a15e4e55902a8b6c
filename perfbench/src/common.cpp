#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "bench.hpp"
#include "prof/prof.hpp"

namespace perfbench {

int SpanLog::open(std::string name, int parent) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const double now = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = now;
}

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), seconds_between(epoch_, start),
                    seconds_between(epoch_, end), parent});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::self_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(
                           {s.start_s, s.end_s});
  double self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const double lo = spans_[i].start_s, hi = spans_[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self += (hi - lo) - covered;
  }
  return self;
}

trace::Json SpanLog::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  trace::Json arr = trace::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    trace::Json s = trace::Json::object();
    s.set("id", static_cast<std::uint64_t>(i));
    s.set("name", spans_[i].name);
    s.set("start_s", spans_[i].start_s);
    s.set("end_s", spans_[i].end_s);
    s.set("parent", static_cast<std::int64_t>(spans_[i].parent));
    arr.push(std::move(s));
  }
  return arr;
}

double ScopedSpan::finish() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = seconds_between(start_, Clock::now());
  if (log_ != nullptr) log_->close(id_);
  return seconds_;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Failed operations sort last as +inf; keep inf - inf and inf * 0 out.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::vector<double> calibration_samples() {
  // A dependent walk over a random cycle of 32 Ki slots (128 KiB, cache
  // resident, so physical page placement does not matter) mixed with
  // integer hashing. Built once, outside the timed samples.
  constexpr std::uint32_t kSlots = 1u << 15;
  std::vector<std::uint32_t> next(kSlots);
  std::vector<std::uint32_t> order(kSlots);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Fisher-Yates, xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < kSlots; ++i) next[order[i]] = order[(i + 1) % kSlots];
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    std::uint64_t h = 0;
    for (std::uint32_t step = 0; step < (1u << 22); ++step) {
      at = next[at];
      h = (h ^ at) * 0x100000001b3ull;
    }
    sink += h;
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return samples;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void add_host_prof_metrics(RunOutput* out) {
  namespace prof = armbar::prof;
  const prof::Snapshot snap = prof::snapshot();
  const auto ns_s = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const double minstr =
      static_cast<double>(snap.counter(prof::Counter::kSimInstructions)) * 1e-6;
  const double run_s = ns_s(snap.phase(prof::Phase::kSimRun).total_ns);
  out->metric("sim.runs",
              static_cast<double>(snap.counter(prof::Counter::kSimRuns)), "count");
  out->metric("sim.minstr", minstr, "Minstr");
  out->metric("sim.mcycles",
              static_cast<double>(snap.counter(prof::Counter::kSimCycles)) * 1e-6,
              "Mcycles");
  out->metric("sim.run_s", run_s, "s");
  out->metric("sim.minstr_per_s", run_s > 0 ? minstr / run_s : 0.0, "Minstr/s");
  out->metric("sim.schedule_self_s",
              ns_s(snap.phase(prof::Phase::kSimSchedule).self_ns), "s");
  out->metric("sim.coherence_self_s",
              ns_s(snap.phase(prof::Phase::kSimCoherence).self_ns), "s");
  out->metric("trace.emits",
              static_cast<double>(snap.phase(prof::Phase::kTraceEmit).count),
              "count");
  out->metric("trace.emit_self_s",
              ns_s(snap.phase(prof::Phase::kTraceEmit).self_ns), "s");
}

}  // namespace perfbench
