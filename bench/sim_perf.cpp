// Simulator self-throughput experiment (ISSUE 6): how fast does the *host*
// chew through simulated instructions, and where does the time go?
//
// Two workload shapes across all four platform presets:
//   * MP producer/consumer — the paper's message-passing kernel on the two
//     most distant cores (cross-node on the server preset): store bursts,
//     dmb.st publishes, a polling consumer. Exercises store-buffer drain,
//     coherence and branch resolution in realistic proportions.
//   * co-heavy deep — every core hammers one shared line with atomic
//     exchanges behind dmb.full. Ownership transfers serialize, so this is
//     the coherence-dominated extreme (and the many-core stress on the
//     64-core kunpeng916 preset).
//
// Timing is host wall-clock around Machine::run — nothing here goes
// through ctx.cached(): host time must never enter a cached value, and the
// whole point is to re-measure. The CI gate is self-relative and therefore
// machine-independent: simulated-instructions/sec is divided by the ops/s
// of a null interpreter loop (switch dispatch over a real Instr vector,
// measured in the same process), so host CPU speed cancels out. A fast box
// and a slow box report the same ips_vs_null within noise; only a real
// simulator regression moves it.
//
// A prof::Session at the top means the report carries an armbar.host_prof
// section (per-phase ns + derived sim_instructions_per_sec) even without
// --profile; with --profile the engine's outer session wins and this one
// is a no-op.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/table.hpp"
#include "experiment_util.hpp"
#include "prof/prof.hpp"
#include "sim/machine.hpp"
#include "sim/platform.hpp"

using namespace armbar;
using runner::ExperimentContext;

namespace {

constexpr Addr kDataAddr = 0x1000;
constexpr Addr kFlagAddr = 0x2000;
constexpr Addr kSharedAddr = 0x3000;

/// Gate floor for ips_vs_null (simulated instr/s over null-loop ops/s).
/// Calibrated for the ISSUE 7 fast-path interpreter: ~2.3e-2 aggregate
/// measured (median of paired reps), ~3x headroom for host noise. Deliberately set
/// above the whole pre-fast-path build's ~3.7e-3, so losing the predecoded
/// dispatch or the event-driven scheduler fails the experiment itself, not
/// just the cross-report trend gate.
constexpr double kMinIpsVsNull = 8e-3;

/// MP producer: K publish rounds of data-store / dmb.st / flag-store.
sim::Program mp_producer(std::uint32_t k) {
  using namespace sim;
  Asm a;
  a.movi(X0, kDataAddr).movi(X2, kFlagAddr).movi(X5, k).movi(X3, 0);
  a.label("loop");
  a.addi(X3, X3, 1);
  a.str(X3, X0, 0);
  a.dmb_st();
  a.str(X3, X2, 0);
  a.cmp(X3, X5);
  a.bne("loop");
  a.halt();
  return a.take("sim-perf-mp-producer");
}

/// MP consumer: poll the flag until the final round lands, then the
/// ordered data read.
sim::Program mp_consumer(std::uint32_t k) {
  using namespace sim;
  Asm a;
  a.movi(X0, kDataAddr).movi(X2, kFlagAddr).movi(X5, k);
  a.label("wait");
  a.ldr(X3, X2, 0);
  a.cmp(X3, X5);
  a.bne("wait");
  a.dmb_ld();
  a.ldr(X10, X0, 0);
  a.halt();
  return a.take("sim-perf-mp-consumer");
}

/// Co-heavy kernel: every core runs this, hammering one shared line with
/// atomic exchanges behind full barriers.
sim::Program co_heavy(std::uint32_t iters) {
  using namespace sim;
  Asm a;
  a.movi(X0, kSharedAddr).movi(X5, iters).movi(X3, 0);
  a.label("loop");
  a.addi(X3, X3, 1);
  a.swp(X6, X3, X0);
  a.dmb_full();
  a.cmp(X3, X5);
  a.bne("loop");
  a.halt();
  return a.take("sim-perf-co-heavy");
}

struct Measured {
  bool completed = false;
  std::uint64_t instructions = 0;
  std::uint64_t host_ns = 0;
  double ips() const {
    return host_ns == 0 ? 0.0
                        : static_cast<double>(instructions) * 1e9 /
                              static_cast<double>(host_ns);
  }
};

Measured time_run(sim::Machine& m) {
  Measured r;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunResult res = m.run(sim::RunConfig{});
  r.host_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  r.completed = res.completed;
  for (const sim::CoreStats& s : res.cores) r.instructions += s.instructions;
  return r;
}

/// The instructions the null loop reads, half a page away from the
/// register file it writes (which null_loop_pass aligns to a page), so no
/// load's address matches an earlier store's in bits 0-11. Where that
/// distance is left to the heap and the stack, address-space randomization
/// decides it, and a matching pair stalls the loop on a false dependency:
/// one binary measured 476 or 579 Mops/s from run to run.
struct alignas(4096) NullCode {
  unsigned char below[2048];
  std::array<sim::Instr, 64> code{};
  std::size_t size = 0;

  explicit NullCode(const std::vector<sim::Instr>& src) : size(src.size()) {
    ARMBAR_CHECK(src.size() <= code.size());
    std::copy(src.begin(), src.end(), code.begin());
  }
};

/// Null-interpreter baseline: a switch-dispatch sweep over a real Instr
/// vector with none of the machine model behind it. This is the "empty
/// interpreter" cost on this host — the denominator that makes the CI gate
/// machine-independent. Deliberately per-op trivial (register file writes
/// only) so it tracks dispatch + memory-touch cost, not workload content.
/// Out of line and cache-line aligned, so its code sits the same way
/// whatever the rest of this file compiles to.
[[gnu::noinline, gnu::aligned(64)]] std::uint64_t null_loop_pass(
    const NullCode& nc, std::uint64_t passes) {
  alignas(4096) std::uint64_t regs[32] = {};
  std::uint64_t sink = 0;
  const sim::Instr* const end = nc.code.data() + nc.size;
  for (std::uint64_t p = 0; p < passes; ++p) {
    for (const sim::Instr* it = nc.code.data(); it != end; ++it) {
      const sim::Instr& ins = *it;
      switch (ins.op) {
        case sim::Op::kMovImm:
          regs[ins.rd] = static_cast<std::uint64_t>(ins.imm);
          break;
        case sim::Op::kAddImm:
          regs[ins.rd] = regs[ins.rn] + static_cast<std::uint64_t>(ins.imm);
          break;
        case sim::Op::kStr:
        case sim::Op::kLdr:
          sink += regs[ins.rn] + static_cast<std::uint64_t>(ins.imm);
          break;
        case sim::Op::kCmp:
          sink += regs[ins.rn] == regs[ins.rm];
          break;
        case sim::Op::kBne:
          sink += ins.target;
          break;
        default:
          sink += static_cast<std::uint64_t>(ins.op);
          break;
      }
    }
  }
  return sink + regs[3];
}

}  // namespace

ARMBAR_EXPERIMENT(sim_perf, "Perf",
                  "host-side simulator throughput and self-profile "
                  "(report-only; the CI gate is self-relative)") {
  // Local session: profile this experiment even when the engine was not
  // started with --profile. An engine-owned (outer) session wins.
  prof::Session session;

  constexpr std::uint32_t kMpRounds = 4000;
  ctx.param("mp_rounds", std::to_string(kMpRounds));
  ctx.param("profiling",
            prof::compiled_in() ? "enabled" : "compiled out (ARMBAR_PROF_DISABLED)");

  // ---- interleaved reps: every simulator run paired with a null pass ----
  // Each run is timed right after its own null-interpreter pass and scored
  // as the ratio of the two, so host drift within the experiment (clock
  // changes, a noisy neighbour) hits numerator and denominator alike; each
  // score is then the median over reps, which a burst of host noise
  // shorter than half the experiment cannot move.
  const auto null_code =
      std::make_unique<NullCode>(mp_producer(kMpRounds).code);
  constexpr std::uint64_t kNullPasses = 20'000;
  std::uint64_t null_sink = 0;
  const auto null_ops_per_sec = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    {
      ARMBAR_PROF_SCOPE(kBenchNullLoop);
      null_sink += null_loop_pass(*null_code, kNullPasses);
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return ns <= 0 ? 0.0
                   : static_cast<double>(kNullPasses) *
                         static_cast<double>(null_code->size) * 1e9 /
                         static_cast<double>(ns);
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };

  // One series per (preset, workload): MP on the two most distant cores
  // (cross-node on kunpeng916), and co-heavy on every core with the
  // iteration count scaled so total contention work stays comparable
  // across 4..64 cores (one predecoded handle shared by all cores). A
  // co-heavy run takes well under a millisecond, so one sample times a
  // batch of fresh machines (the simulated result is identical every time)
  // to keep it about as long as its null pass.
  struct Series {
    sim::PlatformSpec spec;
    std::string workload;
    int batch;
    std::function<void(sim::Machine&)> load;
    std::vector<double> ips, vs_null;
    std::uint64_t instructions = 0;
    bool completed = true;
  };
  const sim::ProgramHandle prod = sim::decode_program(mp_producer(kMpRounds));
  const sim::ProgramHandle cons = sim::decode_program(mp_consumer(kMpRounds));
  std::vector<Series> series;
  for (const sim::PlatformSpec& spec : sim::all_platforms()) {
    const std::uint32_t n = spec.total_cores();
    series.push_back({spec, "mp", 1, [n, prod, cons](sim::Machine& m) {
                        m.load_program(0, prod);
                        m.load_program(n - 1, cons);
                      }, {}, {}, 0, true});
    const sim::ProgramHandle heavy = sim::decode_program(co_heavy(768 / n));
    series.push_back({spec, "deep", 8, [n, heavy](sim::Machine& m) {
                        for (std::uint32_t c = 0; c < n; ++c)
                          m.load_program(c, heavy);
                      }, {}, {}, 0, true});
  }

  constexpr int kReps = 21;
  std::vector<double> nulls, rep_vs_null;
  std::uint64_t total_instrs = 0;
  std::uint64_t total_ns = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    double rep_sec = 0.0, rep_null_sec = 0.0;
    for (Series& s : series) {
      const double null_ops = null_ops_per_sec();
      Measured r;
      for (int b = 0; b < s.batch; ++b) {
        sim::Machine m(s.spec, 8u << 20);
        s.load(m);
        const Measured one = time_run(m);
        s.completed = s.completed && one.completed;
        r.instructions += one.instructions;
        r.host_ns += one.host_ns;
      }
      nulls.push_back(null_ops);
      s.ips.push_back(r.ips());
      s.vs_null.push_back(null_ops > 0 ? r.ips() / null_ops : 0.0);
      s.instructions = r.instructions / static_cast<std::uint64_t>(s.batch);
      rep_sec += static_cast<double>(r.host_ns) * 1e-9;
      if (null_ops > 0) rep_null_sec += static_cast<double>(r.instructions) / null_ops;
      total_instrs += r.instructions;
      total_ns += r.host_ns;
    }
    // The rep's aggregate: simulated instrs/s over the null loop's ops/s,
    // each summed over the same instruction counts.
    if (rep_sec > 0) rep_vs_null.push_back(rep_null_sec / rep_sec);
  }
  const double null_mops = median(nulls) / 1e6;
  ctx.param("null_loop_sink", std::to_string(null_sink));  // defeats DCE
  ctx.metric("null_loop_mops", null_mops);
  ctx.check(null_mops > 0, "null interpreter baseline measured");

  TextTable t("Host-side simulator throughput, median of " +
              std::to_string(kReps) +
              " reps (report-only; absolute numbers are machine-dependent)");
  t.header({"platform", "cores", "workload", "sim instrs", "M instr/s",
            "vs null"});
  for (const Series& s : series) {
    const std::string name = s.spec.name + "_" + s.workload + "_ips";
    const char* label = s.workload == "mp" ? "MP" : "co-heavy";
    ctx.check(s.completed,
              std::string(label) + " workload completed on " + s.spec.name);
    ctx.metric(name, median(s.ips));
    ctx.metric(name + "_vs_null", median(s.vs_null));
    t.row({s.spec.name, TextTable::num(s.spec.total_cores(), 0), label,
           TextTable::num(static_cast<double>(s.instructions), 0),
           TextTable::num(median(s.ips) / 1e6, 2),
           TextTable::num(median(s.vs_null), 5)});
  }

  const double sim_ips = total_ns == 0
                             ? 0.0
                             : static_cast<double>(total_instrs) * 1e9 /
                                   static_cast<double>(total_ns);
  const double ips_vs_null = median(rep_vs_null);
  ctx.metric("sim_ips", sim_ips);
  ctx.metric("ips_vs_null", ips_vs_null);
  ctx.check(sim_ips > 0, "aggregate simulator throughput measured");
  ctx.check(ips_vs_null >= kMinIpsVsNull,
            "self-relative throughput ips_vs_null >= " +
                std::to_string(kMinIpsVsNull) + " (measured " +
                std::to_string(ips_vs_null) + ")");

  t.note("ips_vs_null = sim instr/s over the in-process null-interpreter");
  t.note("ops/s; host CPU speed cancels, so the CI gate on it is");
  t.note("machine-independent (tools/armbar-perf diffs two reports)");
  t.print();
}
