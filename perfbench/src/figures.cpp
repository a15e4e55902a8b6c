// `figures`: runner::Engine::run over the 18 figure/table experiments with
// jobs = 4, the result cache off and collect_metrics on — what
// `armbar-bench --json --no-cache --jobs 4` does. The simulator does almost
// all the work; the runner's serial experiment order sets the wall.
//
// Operation: one experiment. It fails when its status is not "ok", one of
// its checks fails, or its points digest differs from the pin in
// bench/baselines/POINTS_DIGESTS.json.
#include <map>

#include "bench.hpp"
#include "runner/engine.hpp"
#include "runner/experiment.hpp"

namespace perfbench {
namespace {

namespace runner = armbar::runner;

constexpr std::size_t kJobs = 4;

struct Setup {
  std::vector<const runner::ExperimentSpec*> matched;
  std::map<std::string, std::string> pins;  ///< experiment -> digest hex
  std::string error;
  runner::EngineOptions opts;
};

Setup set_up(const Params& p) {
  Setup s;
  s.matched = runner::Registry::global().match(p.figures_filter);
  std::string text, err;
  const std::string path = p.root + "/bench/baselines/POINTS_DIGESTS.json";
  if (!read_file(path, &text)) {
    s.error = "cannot read " + path;
    return s;
  }
  const armbar::trace::Json doc = armbar::trace::Json::parse(text, &err);
  const armbar::trace::Json* digests = doc.find("digests");
  if (!err.empty() || digests == nullptr) {
    s.error = path + ": no digests (" + err + ")";
    return s;
  }
  for (const auto& [key, value] : digests->members()) {
    const std::string suffix = "/points_digest";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0)
      s.pins[key.substr(0, key.size() - suffix.size())] = value.str();
  }
  s.opts.filter = p.figures_filter;
  s.opts.jobs = kJobs;
  s.opts.cache_enabled = false;
  s.opts.collect_metrics = true;
  s.opts.handle_sigint = false;
  return s;
}

}  // namespace

RunOutput run_figures(const Params& p) {
  RunOutput out;
  Setup s;
  out.metric("setup_s", median_setup_s([&] { s = set_up(p); }), "s");
  if (!out.check(s.error.empty(), "points-digest pin readable: " + s.error))
    return out;
  out.check(s.matched.size() == p.figures_expected,
            "filter matches " + std::to_string(p.figures_expected) +
                " experiments (got " + std::to_string(s.matched.size()) + ")");

  SpanLog spans(Clock::now());
  SpanLog* log = p.traced ? &spans : nullptr;
  runner::EngineOptions opts = s.opts;
  opts.profile = p.traced;
  const double cpu0 = cpu_seconds();
  const auto run_start = Clock::now();
  ScopedSpan engine_span(log, "runner.Engine::run");
  const runner::EngineResult result =
      runner::Engine(runner::Registry::global(), opts).run();
  const double wall = engine_span.finish();
  const double cpu = cpu_seconds() - cpu0;

  double serial_sum = 0.0, critical = 0.0;
  std::uint64_t points = 0;
  trace::Json digests = trace::Json::object();
  trace::Json walls_ms = trace::Json::object();
  for (const runner::ExperimentOutcome& o : result.outcomes) {
    ++out.attempted;
    walls_ms.set(o.name, o.wall_ms);
    serial_sum += o.wall_ms * 1e-3;
    critical = std::max(critical, o.wall_ms * 1e-3);
    points += o.points;
    const std::string digest = hex16(o.points_digest);
    digests.set(o.name, digest);
    const auto pin = s.pins.find(o.name);
    if (o.status != "ok" || !o.ok)
      out.fail(o.name + ": status " + o.status + " " + o.kind + " " + o.reason);
    else if (pin == s.pins.end())
      out.fail(o.name + ": no pinned points digest");
    else if (pin->second != digest)
      out.fail(o.name + ": points digest " + digest + " != pin " + pin->second);
  }
  out.check(out.failed == 0, "every experiment ok with its pinned points digest");
  out.info.set("points_digests", std::move(digests));
  out.info.set("experiment_ms", std::move(walls_ms));

  out.metric("wall_s", wall, "s");
  out.metric("ops_per_s", static_cast<double>(out.attempted) / wall, "1/s");

  if (p.traced) {
    // Experiments run one after another in name order, so their windows
    // tile the Engine::run span; rebuild them from the outcomes' walls.
    auto at = run_start;
    for (const runner::ExperimentOutcome& o : result.outcomes) {
      const auto end = at + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(o.wall_ms));
      spans.add("runner.experiment." + o.name, at, end, engine_span.id());
      at = end;
      out.metric("runner.wall_s." + o.name, o.wall_ms * 1e-3, "s");
    }
    out.metric("runner.serial_sum_s", serial_sum, "s");
    out.metric("runner.critical_path_s", critical, "s");
    out.metric("runner.overlap", serial_sum / wall, "ratio");
    out.metric("runner.cpu_util", cpu / (wall * static_cast<double>(kJobs)),
               "ratio");
    out.metric("runner.points", static_cast<double>(points), "count");
    add_host_prof_metrics(&out);
    out.info.set("spans", spans.to_json());
  }
  return out;
}

}  // namespace perfbench
