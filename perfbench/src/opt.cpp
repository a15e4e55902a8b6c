// `opt`: opt::optimize with default OptOptions over the barrier_opt corpus
// (the 16 Table-1 shapes, the 3 strong lock templates, fuzz seeds 1-8), one
// thread, in corpus order, as armbar-opt runs it. Each original and
// optimized pair is then priced with sim::Machine::run on every preset that
// has enough cores. The axiomatic checker, used as the oracle, does nearly
// all the work; the simulator does little.
//
// Operation: one program. It fails when optimize or pricing throws, or a
// model-valid program is not verified_equal.
#include <algorithm>
#include <limits>

#include "bench.hpp"
#include "common/check.hpp"
#include "fuzz/gen.hpp"
#include "litmus/golden.hpp"
#include "litmus/shapes.hpp"
#include "lockver/templates.hpp"
#include "opt/driver.hpp"
#include "prof/prof.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"

namespace perfbench {
namespace {

namespace model = armbar::model;
namespace opt = armbar::opt;
namespace sim = armbar::sim;
namespace lockver = armbar::lockver;

struct Entry {
  model::ConcurrentProgram prog;
  std::string golden;  ///< pinned decision log (Table-1 shapes only)
  /// Standalone barriers of the hand-weakened template (locks only): the
  /// Table-3 parity bar.
  std::int64_t weakened_barriers = -1;
};

struct Setup {
  std::vector<Entry> corpus;
  std::vector<sim::PlatformSpec> platforms;
  std::string error;
};

Setup set_up(const Params& p) {
  Setup s;
  s.platforms = sim::all_platforms();
  const std::vector<std::string> reduced_shapes = {"MP", "MP+dmb.full", "SB",
                                                   "SB+dmb.full"};
  for (const armbar::litmus::Table1Shape& shape : armbar::litmus::table1_shapes()) {
    if (p.opt_reduced &&
        std::find(reduced_shapes.begin(), reduced_shapes.end(), shape.name) ==
            reduced_shapes.end())
      continue;
    Entry e;
    e.prog = shape.model_prog;
    e.prog.name = shape.name;
    const std::string path = p.root + "/tests/opt/golden/" +
                             armbar::litmus::golden_filename(shape.name);
    if (!read_file(path, &e.golden)) s.error = "cannot read " + path;
    s.corpus.push_back(std::move(e));
  }
  for (lockver::LockFamily f : {lockver::LockFamily::kTicket,
                                lockver::LockFamily::kCna,
                                lockver::LockFamily::kFfwd}) {
    if (p.opt_reduced && f != lockver::LockFamily::kTicket) continue;
    Entry e;
    lockver::LockScenario strong = lockver::make_scenario(f, lockver::Strength::kStrong);
    e.prog = strong.prog;
    e.prog.name = strong.name;
    e.weakened_barriers = opt::count_standalone_barriers(
        lockver::make_scenario(f, lockver::Strength::kWeakened).prog);
    s.corpus.push_back(std::move(e));
  }
  const std::uint32_t fuzz_seeds = p.opt_reduced ? 1 : 8;
  for (std::uint32_t seed = 1; seed <= fuzz_seeds; ++seed) {
    Entry e;
    e.prog = armbar::fuzz::generate(seed, {});
    s.corpus.push_back(std::move(e));
  }
  return s;
}

/// One pricing run: build the machine, then span Machine::run alone.
std::int64_t price(const sim::PlatformSpec& spec,
                   const model::ConcurrentProgram& prog, SpanLog* log,
                   int parent) {
  sim::Machine m(spec, 1u << 20);
  for (const auto& [addr, v] : prog.init) m.mem().poke(addr, v);
  for (std::size_t t = 0; t < prog.threads.size(); ++t)
    m.load_program(static_cast<armbar::CoreId>(t), prog.threads[t]);
  sim::RunConfig rc;
  rc.max_cycles = 10'000'000;
  ScopedSpan span(log, "sim.Machine::run", parent);
  const sim::RunResult rr = m.run(rc);
  return rr.completed ? static_cast<std::int64_t>(rr.cycles) : -1;
}

}  // namespace

RunOutput run_opt(const Params& p) {
  RunOutput out;
  Setup s;
  out.metric("setup_s", median_setup_s([&] { s = set_up(p); }), "s");
  if (!out.check(s.error.empty(), "decision goldens readable: " + s.error))
    return out;

  SpanLog spans(Clock::now());
  SpanLog* log = p.traced ? &spans : nullptr;
  const opt::OptOptions opts;
  std::vector<double> verdict_ms;
  trace::Json program_ms = trace::Json::object();
  double oracle_s = 0.0, program_s_max = 0.0;
  std::uint64_t oracle_calls = 0, attempted = 0, accepted = 0, restored = 0,
                removed = 0;
  std::vector<double> saved(s.platforms.size(), 0.0);
  std::size_t golden_ok = 0, goldens = 0, parity = 0, parity_families = 0;
  bool all_valid = true, all_priced = true;

  if (p.traced) {
    armbar::prof::reset();
    armbar::prof::set_enabled(true);
  }
  const auto previous = armbar::set_check_fail_handler(&armbar::throw_check_failure);
  ScopedSpan wall_span(log, "opt.corpus");
  std::vector<double> first_s(s.corpus.size(), -1.0);
  for (std::size_t n = 0; n < s.corpus.size(); ++n) {
    const Entry& e = s.corpus[n];
    ++out.attempted;
    try {
      ScopedSpan span(log, "opt.optimize", wall_span.id());
      const opt::OptResult r = opt::optimize(e.prog, opts);
      const double took = span.finish();
      first_s[n] = took;
      program_s_max = std::max(program_s_max, took);
      oracle_calls += r.oracle_calls;
      oracle_s += static_cast<double>(r.oracle_ns) * 1e-9;
      attempted += r.attempted;
      accepted += r.accepted;
      restored += r.restored;
      if (r.barriers_after < r.barriers_before)
        removed += r.barriers_before - r.barriers_after;
      all_valid = all_valid && r.model_valid;
      if (r.model_valid && !r.verified_equal)
        out.fail(e.prog.name + ": optimized program not verified equal");
      if (!e.golden.empty()) {
        ++goldens;
        if (opt::describe_decisions(r) == e.golden) ++golden_ok;
      }
      if (e.weakened_barriers >= 0) {
        ++parity_families;
        if (static_cast<std::int64_t>(r.barriers_after) <= e.weakened_barriers)
          ++parity;
      }
      for (std::size_t i = 0; i < s.platforms.size(); ++i) {
        if (s.platforms[i].total_cores() < r.original.threads.size()) continue;
        const std::int64_t before =
            price(s.platforms[i], r.original, log, wall_span.id());
        const std::int64_t after =
            price(s.platforms[i], r.optimized, log, wall_span.id());
        if (before < 0 || after < 0) all_priced = false;
        saved[i] += static_cast<double>(before - after);
      }
    } catch (const std::exception& ex) {
      out.fail(e.prog.name + ": " + ex.what());
    }
  }
  const double wall = wall_span.finish();
  if (p.traced) armbar::prof::set_enabled(false);

  // Time to a verdict per program: most programs decide in well under a
  // millisecond, so one sample is mostly timer and cache noise. Repeat
  // each one (outside the timed pass) and take the median; a program
  // slower than 1 s (fuzz seed 3) keeps its single sample. The traced
  // pass does not report these.
  for (std::size_t n = 0; n < s.corpus.size() && !p.traced; ++n) {
    if (first_s[n] < 0) {  // threw: a failed operation misses any limit
      verdict_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    std::vector<double> samples = {first_s[n]};
    double total = first_s[n];
    while (total < 1.0 && (samples.size() < 5 || total < 0.05)) {
      const auto t0 = Clock::now();
      opt::optimize(s.corpus[n].prog, opts);
      samples.push_back(seconds_between(t0, Clock::now()));
      total += samples.back();
    }
    verdict_ms.push_back(median(std::move(samples)) * 1e3);
    program_ms.set(s.corpus[n].prog.name, verdict_ms.back());
  }
  armbar::set_check_fail_handler(previous);

  out.check(out.failed == 0, "every model-valid program is verified_equal");
  out.check(all_valid, "every corpus program is model-valid");
  out.check(goldens > 0 && golden_ok == goldens,
            std::to_string(golden_ok) + "/" + std::to_string(goldens) +
                " Table-1 decision logs byte-equal to tests/opt/golden");
  out.check(parity == parity_families,
            "Table-3 parity holds " + std::to_string(parity) + " of " +
                std::to_string(parity_families));
  out.check(all_priced, "every pricing run completed");
  for (std::size_t i = 0; i < s.platforms.size(); ++i)
    out.check(saved[i] > 0, s.platforms[i].name + ": simulated cycles saved > 0");

  out.info.set("program_ms", std::move(program_ms));

  out.metric("wall_s", wall, "s");
  out.metric("ops_per_s", static_cast<double>(out.attempted) / wall, "1/s");
  if (!p.traced) {
    out.metric("opt.program_ms_p50", percentile(verdict_ms, 50), "ms");
    out.metric("opt.program_ms_p95", percentile(verdict_ms, 95), "ms");
    return out;
  }
  const double optimize_s = spans.self_s("opt.optimize");
  out.metric("opt.optimize_s", optimize_s, "s");
  out.metric("opt.program_s_max", program_s_max, "s");
  out.metric("opt.oracle_calls", static_cast<double>(oracle_calls), "count");
  out.metric("opt.oracle_s", oracle_s, "s");
  out.metric("opt.oracle_share", optimize_s > 0 ? oracle_s / optimize_s : 0.0,
             "ratio");
  out.metric("opt.attempted", static_cast<double>(attempted), "count");
  out.metric("opt.accepted", static_cast<double>(accepted), "count");
  out.metric("opt.restored", static_cast<double>(restored), "count");
  out.metric("opt.accept_ratio",
             attempted > 0 ? static_cast<double>(accepted) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "ratio");
  out.metric("opt.barriers_removed", static_cast<double>(removed), "count");
  out.metric("opt.price_s", spans.self_s("sim.Machine::run"), "s");
  for (std::size_t i = 0; i < s.platforms.size(); ++i)
    out.metric("opt.cycles_saved." + s.platforms[i].name, saved[i], "cycles");
  add_host_prof_metrics(&out);
  out.info.set("spans", spans.to_json());
  return out;
}

}  // namespace perfbench
