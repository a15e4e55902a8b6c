// perfbench: the armbar benchmark program. It links the repository's
// libraries and times, from outside, the calls into each layer's public
// functions (runner::Engine::run, sim::Machine::run, opt::optimize,
// fuzz::generate / fuzz::run_diff, shmsvc::Producer::produce /
// shmsvc::Consumer::pop). Nothing here adds instrumentation inside src/.
//
// A workload returns a RunOutput: the operation counts, the output checks
// it made, and its metrics by name. run.py turns that into the one-line
// result BENCHMARK.json describes.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace/json.hpp"

namespace perfbench {

namespace trace = armbar::trace;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one invocation asks for. The reduced-form fields default to the
/// full workload; the benchmark's own tests shrink them.
struct Params {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string root;     ///< checkout root (pins and goldens are read here)

  // ---- reduced forms (tests) ----
  std::string figures_filter = "fig*,table*,ablation*";
  std::size_t figures_expected = 18;
  bool opt_reduced = false;           ///< 4 shapes + 1 lock + 1 fuzz seed
  std::uint64_t fuzz_first = 0;       ///< 0 = derive the block from seed
  std::uint64_t fuzz_count = 0;
  std::uint64_t fuzz_plant_seed = 0;  ///< ARMBAR_CHECK(false) on this seed
  std::uint64_t shm_closed_records = 0;  ///< 0 = the full-size phases
  std::uint64_t shm_open_records = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< one line per failed operation
  std::vector<std::pair<std::string, bool>> checks;
  trace::Json info = trace::Json::object();  ///< workload-specific record

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// An output check: a false one makes the run incorrect.
  bool check(bool ok, std::string claim) {
    checks.emplace_back(std::move(claim), ok);
    if (!ok) correct = false;
    return ok;
  }
  /// Counts `n` failed operations under one message.
  void fail(std::string why, std::uint64_t n = 1) {
    failed += n;
    failures.push_back(std::move(why));
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics)
      if (m.name == name) return &m;
    return nullptr;
  }
  Metric* find_mut(const std::string& name) {
    return const_cast<Metric*>(std::as_const(*this).find(name));
  }
};

/// Spans recorded around the calls into each layer: name, start, end and
/// parent, kept in memory and written out when the run ends. Thread-safe;
/// a null SpanLog* means "not traced" and every helper is then a no-op.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span now; returns its id (the parent of spans inside it).
  int open(std::string name, int parent = -1);
  void close(int id);
  /// Records a span whose window is known after the fact.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1);

  /// Sum over spans named `name` of their duration minus the part of it
  /// their child spans cover.
  double self_s(const std::string& name) const;

  trace::Json to_json() const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a span when traced.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent = -1)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), parent) : -1),
        start_(Clock::now()) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now; returns its duration in seconds. Idempotent.
  double finish();
  /// Id of the recorded span (-1 when untraced).
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// Linear-interpolated percentile (p in [0, 100]) of `v`; sorts a copy.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Runs `setup` at least 5 times and until 0.2 s of set-up has been timed
/// (at most 200 times) and returns the median duration in seconds. The
/// value the last call built is what the timed phase then uses.
template <typename Fn>
double median_setup_s(Fn&& setup) {
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.size() < 5 || (spent < 0.2 && samples.size() < 200)) {
    const auto t0 = Clock::now();
    setup();
    const double s = seconds_between(t0, Clock::now());
    samples.push_back(s);
    spent += s;
  }
  return median(std::move(samples));
}

/// Nine timings, in seconds, of a fixed single-thread kernel owned by the
/// benchmark (no repository code, so no change under test moves it). The
/// host's speed drifts by up to 1.7x over minutes; main() scales the
/// end-to-end times by kCalibrationRefS / (the median of the samples taken
/// before and after the work), so that drift cancels.
std::vector<double> calibration_samples();
/// The kernel time the end-to-end seconds are expressed against: those
/// metrics read as seconds on a host where the kernel takes 20 ms.
inline constexpr double kCalibrationRefS = 0.020;

/// Peak resident set of this process, in MB.
double peak_rss_mb();
/// User + system CPU seconds this process has used so far.
double cpu_seconds();

/// A digest as the 16 hex digits the pins use.
std::string hex16(std::uint64_t v);

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string* out);

/// Copies the host_prof counters and phases the simulator and tracer
/// already record (prof/prof.hpp) into sim.* and trace.* metrics. The
/// caller enables profiling around the timed work.
void add_host_prof_metrics(RunOutput* out);

// ---- workloads ----
RunOutput run_figures(const Params& p);
RunOutput run_opt(const Params& p);
RunOutput run_fuzz(const Params& p);
RunOutput run_shm(const Params& p);

/// The fuzz seed block the workload seed selects: [*first, *first + *count).
void fuzz_block(std::uint64_t workload_seed, std::uint64_t* first,
                std::uint64_t* count);

}  // namespace perfbench
