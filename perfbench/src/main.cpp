// armbar-perfbench: runs one benchmark workload and writes its result as
// JSON. run.py builds this binary, calls it, and prints the one-line
// result; call it directly only to debug a workload or regenerate pins.
//
//   armbar-perfbench --workload figures|opt|fuzz|shm --seed N --seconds S
//                    --trace 0|1 --root DIR --result PATH
//                    [--commit SHA]
//   armbar-perfbench --workload fuzz --fuzz-first N --fuzz-count N
//                    --root DIR --write-fuzz-pins PATH
//
// It writes only --result (or the pins file); run.py starts it in the
// run's output directory.
//
// A traced run (--trace 1) runs the workload twice in this process: once
// untraced, then with spans and the host profiler on. Its per-layer
// metrics come from the traced pass (the shm saturation and latency
// figures from the untraced one); the difference of the two walls is the
// tracing overhead.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#error "PERFBENCH_BUILD_TYPE must be defined by the build"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "armbar-perfbench: %s\n"
               "usage: armbar-perfbench --workload figures|opt|fuzz|shm "
               "--seed N --seconds S --trace 0|1 --root DIR "
               "--result PATH [--commit SHA] [--fuzz-first N --fuzz-count N] "
               "[--write-fuzz-pins PATH]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

trace::Json build_info(const std::string& commit) {
  trace::Json b = trace::Json::object();
  b.set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  b.set("compiler", "clang " __VERSION__);
#else
  b.set("compiler", "g++ " __VERSION__);
#endif
  b.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  b.set("commit", commit);
  return b;
}

/// Refuses to measure anything but an optimized Release build of the
/// libraries (they are compiled in the same CMake tree as this file).
bool release_build(std::string* why) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  *why = "not compiled with optimization and NDEBUG";
  return false;
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    *why = std::string("build type is '") + PERFBENCH_BUILD_TYPE + "', not Release";
    return false;
  }
  return true;
#endif
}

RunOutput run_workload(const std::string& w, const Params& p) {
  if (w == "figures") return run_figures(p);
  if (w == "opt") return run_opt(p);
  if (w == "fuzz") return run_fuzz(p);
  return run_shm(p);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, result_path, commit = "unknown", pins_path;
  Params p;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed" && parse_u64(v, &n)) {
      p.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(v, &n) && n >= 1 && n <= 3600) {
      p.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(v, &n) && n <= 1) {
      p.traced = n == 1;
      have_trace = true;
    } else if (arg == "--root") {
      p.root = v;
    } else if (arg == "--result") {
      result_path = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--fuzz-first" && parse_u64(v, &n) && n >= 1) {
      p.fuzz_first = n;
    } else if (arg == "--fuzz-count" && parse_u64(v, &n) && n >= 1) {
      p.fuzz_count = n;
    } else if (arg == "--write-fuzz-pins") {
      pins_path = v;
    } else {
      return usage(("bad option or value: " + arg + " " + v).c_str());
    }
  }
  const std::set<std::string> workloads = {"figures", "opt", "fuzz", "shm"};
  if (workloads.count(workload) == 0) return usage("unknown --workload");
  if (p.root.empty()) return usage("--root is required");
  if ((p.fuzz_first == 0) != (p.fuzz_count == 0))
    return usage("--fuzz-first and --fuzz-count go together");
  if (!pins_path.empty() && (workload != "fuzz" || p.fuzz_first == 0))
    return usage("--write-fuzz-pins needs --workload fuzz and an explicit block");
  if (pins_path.empty() && (!have_seed || !have_seconds || !have_trace || result_path.empty()))
    return usage("--seed, --seconds, --trace and --result are required");
  std::string why;
  if (!release_build(&why)) {
    std::fprintf(stderr, "armbar-perfbench: refusing to measure: %s\n", why.c_str());
    return 3;
  }

  std::vector<double> calib = calibration_samples();
  RunOutput out;
  if (!p.traced) {
    out = run_workload(workload, p);
  } else {
    Params plain = p;
    plain.traced = false;
    const RunOutput untraced = run_workload(workload, plain);
    out = run_workload(workload, p);
    for (const Metric& m : untraced.metrics)
      if (out.find(m.name) == nullptr) out.metrics.push_back(m);
    if (out.find("wall_s") != nullptr && untraced.find("wall_s") != nullptr) {
      const double traced_wall = out.find("wall_s")->value;
      const double untraced_wall = untraced.find("wall_s")->value;
      out.metric("bench.untraced_wall_s", untraced_wall, "s");
      out.metric("bench.traced_wall_s", traced_wall, "s");
      out.metric("bench.trace_overhead_s", traced_wall - untraced_wall, "s");
    }
    out.correct = out.correct && untraced.correct;
  }
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // End-to-end times in reference-host seconds: scaled by how fast the
  // calibration kernel ran around the work, so host speed cancels. The
  // measured values stay in the record as bench.raw_*.
  const std::vector<double> calib_after = calibration_samples();
  calib.insert(calib.end(), calib_after.begin(), calib_after.end());
  const double calib_s = median(std::move(calib));
  const double scale = kCalibrationRefS / calib_s;
  out.metric("bench.calib_ms", calib_s * 1e3, "ms");
  for (const char* name : {"setup_s", "wall_s", "ops_per_s"}) {
    Metric* m = out.find_mut(name);
    if (m == nullptr) continue;
    const Metric raw = *m;
    m->value = raw.name == "ops_per_s" ? raw.value / scale : raw.value * scale;
    out.metric("bench.raw_" + raw.name, raw.value, raw.unit);  // moves *m
  }

  if (!pins_path.empty()) {
    trace::Json doc = trace::Json::object();
    doc.set("schema", "perfbench.fuzz_digests/v1");
    doc.set("note",
            "DiffResult::digest() per generator seed under "
            "DiffOptions::defaults(8). A seed that fails has no digest.");
    doc.set("digests", *out.info.find("digests"));
    std::ofstream f(pins_path, std::ios::binary);
    f << doc.dump(1) << "\n";
    if (!f.good()) return usage("cannot write the pins file");
    std::printf("wrote %zu digests to %s\n", out.info.find("digests")->size(),
                pins_path.c_str());
    return 0;
  }

  trace::Json doc = trace::Json::object();
  doc.set("workload", workload);
  doc.set("seed", p.seed);
  doc.set("seconds", p.seconds);
  doc.set("trace", p.traced);
  doc.set("build", build_info(commit));
  doc.set("correct", out.correct);
  doc.set("attempted", out.attempted);
  doc.set("failed", out.failed);
  trace::Json metrics = trace::Json::object();
  for (const Metric& m : out.metrics) {
    trace::Json v = trace::Json::object();
    // JSON has no inf/nan; run.py refuses a result carrying either.
    if (std::isfinite(m.value))
      v.set("value", m.value);
    else
      v.set("value", std::isnan(m.value) ? "nan" : "inf");
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  doc.set("metrics", std::move(metrics));
  trace::Json checks = trace::Json::array();
  for (const auto& [claim, ok] : out.checks) {
    trace::Json c = trace::Json::object();
    c.set("claim", claim);
    c.set("pass", ok);
    checks.push(std::move(c));
  }
  doc.set("checks", std::move(checks));
  trace::Json failures = trace::Json::array();
  for (const std::string& f : out.failures) failures.push(f);
  doc.set("failures", std::move(failures));
  doc.set("info", std::move(out.info));

  std::ofstream f(result_path, std::ios::binary);
  f << doc.dump(1) << "\n";
  f.close();
  if (!f.good()) {
    std::fprintf(stderr, "armbar-perfbench: cannot write %s\n", result_path.c_str());
    return 1;
  }
  return 0;
}
