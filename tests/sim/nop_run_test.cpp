// Nop runs retired in closed form: every edge case where another core, the
// store buffer, a branch or the run loop can act while a core sits in a run
// of nops. Each case runs on all four presets and is pinned field by field
// (cycles, completion, every CoreStats counter, MemStats) to the values the
// one-step-per-nop interpreter produced, so any drift in the closed form
// shows up as a pin mismatch.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "sim/fault/fault.hpp"
#include "sim/machine.hpp"

namespace armbar::sim {
namespace {

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;
constexpr Addr kFlag = 0x3000;

/// Every RunResult field, one line. `retired` is left out: it is checked
/// against `instructions` separately.
std::string fingerprint(const RunResult& r) {
  std::ostringstream os;
  os << "cycles=" << r.cycles << " completed=" << r.completed;
  for (std::size_t c = 0; c < r.cores.size(); ++c) {
    const CoreStats& s = r.cores[c];
    os << " | c" << c << " i=" << s.instructions << " ld=" << s.loads
       << " st=" << s.stores << " lm=" << s.load_misses << " b=" << s.barriers
       << " sq=" << s.squashes << " wfe=" << s.wfe_parks
       << " sx=" << s.stxr_failures << " sbr=" << s.sb_retired
       << " h=" << s.halted_at << " stall=";
    for (std::uint64_t v : s.stall_cycles) os << v << ",";
  }
  const MemStats& m = r.mem;
  os << " | mem " << m.gets_local << "," << m.gets_remote << ","
     << m.getm_local << "," << m.getm_remote << "," << m.mem_fills << ","
     << m.upgrades << "," << m.hits;
  return os.str();
}

struct Case {
  const char* name;
  /// Loads programs and initial memory; returns the run config to use.
  std::function<RunConfig(Machine&)> setup;
};

/// A backward branch and a forward jump, both landing mid-run.
RunConfig branch_into_run(Machine& m) {
  Asm a;
  a.movi(X0, kA).movi(X1, 0).movi(X5, 4);
  a.b("inrun");
  a.nops(5);
  a.label("inrun");
  a.nops(9);
  a.label("top");
  a.nops(7);
  a.label("mid");
  a.nops(13);
  a.str(X1, X0, 0);
  a.addi(X1, X1, 1);
  a.cmp(X1, X5);
  a.blt("mid");
  a.halt();
  m.load_program(0, a.take("branch-into-run"));
  return RunConfig{};
}

/// A forward cbnz behind a cold load is predicted not-taken; the nop run on
/// the predicted path is cut when it resolves taken and squashes.
RunConfig squash_mid_run(Machine& m) {
  m.mem().poke(kFlag, 1);
  Asm a;
  a.movi(X0, kFlag).movi(X2, kA).movi(X3, 9);
  a.str(X3, X2, 0);
  a.ldr(X1, X0, 0);
  a.cbnz(X1, "far");
  a.nops(300);
  a.str(X3, X2, 8);
  a.label("far");
  a.nops(40);
  a.ldr(X4, X0, 0);
  a.cbz(X4, "end");  // predicted not-taken, resolves not-taken
  a.nops(60);
  a.label("end");
  a.halt();
  m.load_program(0, a.take("squash-mid-run"));
  return RunConfig{};
}

/// Nop runs while the store buffer drains under a pending dmb st gate and
/// behind STLRs, with a second core pulling the same lines away.
RunConfig drain_under_gate(Machine& m) {
  Asm a;
  a.movi(X0, kA).movi(X2, kB).movi(X3, 7);
  a.str(X3, X0, 0);
  a.str(X3, X2, 0);
  a.dmb_st();
  a.nops(60);
  a.str(X3, X0, 8);
  a.stlr(X3, X2, 8);
  a.nops(90);
  a.ldr(X4, X0, 0);
  a.stlr(X4, X0, 16);
  a.str(X4, X2, 16);
  a.nops(30);
  a.dmb_st();
  a.str(X4, X2, 24);
  a.nops(25);
  a.halt();
  m.load_program(0, a.take("drain-under-gate"));

  Asm b;
  b.movi(X0, kA).movi(X2, kB);
  b.ldr(X1, X0, 0);
  b.nops(20);
  b.str(X1, X2, 32);
  b.nops(15);
  b.ldr(X5, X2, 8);
  b.str(X5, X0, 40);
  b.halt();
  m.load_program(m.num_cores() - 1, b.take("gate-partner"));
  return RunConfig{};
}

/// The cycle limit lands inside a run on two cores.
RunConfig max_cycles_in_run(Machine& m) {
  Asm a;
  a.nops(5000);
  a.halt();
  m.load_program(0, a.take("long-run"));
  Asm b;
  b.movi(X0, kA).movi(X1, 3);
  b.nops(300);
  b.str(X1, X0, 0);
  b.nops(3000);
  b.halt();
  m.load_program(m.num_cores() - 1, b.take("store-then-run"));
  RunConfig cfg;
  cfg.max_cycles = 1234;
  return cfg;
}

/// A WFE parker woken by a store drained from a core mid-run.
RunConfig wfe_woken_by_run(Machine& m) {
  Asm a;
  a.movi(X0, kFlag);
  a.label("wait");
  a.ldr(X1, X0, 0);
  a.cbnz(X1, "done");
  a.wfe();
  a.b("wait");
  a.label("done");
  a.nops(10);
  a.halt();
  m.load_program(0, a.take("parker"));
  Asm b;
  b.movi(X0, kFlag).movi(X1, 1);
  b.nops(200);
  b.str(X1, X0, 0);
  b.nops(2000);
  b.halt();
  m.load_program(m.num_cores() - 1, b.take("waker"));
  return RunConfig{};
}

/// Message passing with nop padding on three cores under the chaos fault
/// plan, with the invariant verifier sweeping every 64 cycles.
RunConfig chaos_verified(Machine& m) {
  static const fault::FaultPlan plan = fault::FaultPlan::chaos(11);
  Asm p;
  p.movi(X0, kA).movi(X2, kFlag).movi(X5, 6).movi(X3, 0);
  p.label("loop");
  p.addi(X3, X3, 1);
  p.str(X3, X0, 0);
  p.nops(17);
  p.dmb_st();
  p.str(X3, X2, 0);
  p.nops(33);
  p.cmp(X3, X5);
  p.bne("loop");
  p.halt();
  m.load_program(0, p.take("chaos-producer"));
  Asm c;
  c.movi(X0, kA).movi(X2, kFlag).movi(X5, 6);
  c.label("wait");
  c.ldr(X3, X2, 0);
  c.nops(11);
  c.cmp(X3, X5);
  c.bne("wait");
  c.dmb_ld();
  c.ldr(X4, X0, 0);
  c.nops(29);
  c.halt();
  m.load_program(m.num_cores() - 1, c.take("chaos-consumer"));
  Asm d;
  d.movi(X0, kB).movi(X1, 5);
  d.nops(70);
  d.stlr(X1, X0, 0);
  d.nops(45);
  d.dmb_full();
  d.nops(12);
  d.halt();
  m.load_program(1, d.take("chaos-bystander"));
  RunConfig cfg;
  cfg.fault = &plan;
  cfg.verify_every = 64;
  return cfg;
}

const Case kCases[] = {
    {"branch_into_run", branch_into_run},
    {"squash_mid_run", squash_mid_run},
    {"drain_under_gate", drain_under_gate},
    {"max_cycles_in_run", max_cycles_in_run},
    {"wfe_woken_by_run", wfe_woken_by_run},
    {"chaos_verified", chaos_verified},
};

// Captured from the one-step-per-nop interpreter.
const std::map<std::string, std::string> kPins = {
    {"branch_into_run/kunpeng916",
     "cycles=88 completed=1 | c0 i=89 ld=0 st=4 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=4 h=88 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,3"},
    {"branch_into_run/kirin960",
     "cycles=88 completed=1 | c0 i=89 ld=0 st=4 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=4 h=88 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,3"},
    {"branch_into_run/kirin970",
     "cycles=88 completed=1 | c0 i=89 ld=0 st=4 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=4 h=88 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,3"},
    {"branch_into_run/rpi4",
     "cycles=88 completed=1 | c0 i=89 ld=0 st=4 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=4 h=88 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,3"},
    {"squash_mid_run/kunpeng916",
     "cycles=228 completed=1 | c0 i=217 ld=2 st=1 lm=1 b=0 sq=1 wfe=0 sx=0 sbr=1 h=228 stall=0,0,0,0,0,0,0,0,12,0, | mem 0,0,0,0,2,0,1"},
    {"squash_mid_run/kirin960",
     "cycles=188 completed=1 | c0 i=177 ld=2 st=1 lm=1 b=0 sq=1 wfe=0 sx=0 sbr=1 h=188 stall=0,0,0,0,0,0,0,0,12,0, | mem 0,0,0,0,2,0,1"},
    {"squash_mid_run/kirin970",
     "cycles=188 completed=1 | c0 i=177 ld=2 st=1 lm=1 b=0 sq=1 wfe=0 sx=0 sbr=1 h=188 stall=0,0,0,0,0,0,0,0,12,0, | mem 0,0,0,0,2,0,1"},
    {"squash_mid_run/rpi4",
     "cycles=208 completed=1 | c0 i=197 ld=2 st=1 lm=1 b=0 sq=1 wfe=0 sx=0 sbr=1 h=208 stall=0,0,0,0,0,0,0,0,12,0, | mem 0,0,0,0,2,0,1"},
    {"drain_under_gate/kunpeng916",
     "cycles=3592 completed=1 | c0 i=219 ld=1 st=7 lm=1 b=2 sq=0 wfe=0 sx=0 sbr=7 h=3592 stall=0,0,0,3374,0,0,0,0,0,0, | c1 i=42 ld=2 st=2 lm=2 b=0 sq=0 wfe=0 sx=0 sbr=2 h=41 stall=0,0,0,0,0,0,0,0,0,0, | mem 1,1,0,5,2,2,2"},
    {"drain_under_gate/kirin960",
     "cycles=294 completed=1 | c0 i=219 ld=1 st=7 lm=1 b=2 sq=0 wfe=0 sx=0 sbr=7 h=294 stall=0,0,0,76,0,0,0,0,0,0, | c1 i=42 ld=2 st=2 lm=2 b=0 sq=0 wfe=0 sx=0 sbr=2 h=41 stall=0,0,0,0,0,0,0,0,0,0, | mem 2,0,5,0,2,2,3"},
    {"drain_under_gate/kirin970",
     "cycles=288 completed=1 | c0 i=219 ld=1 st=7 lm=1 b=2 sq=0 wfe=0 sx=0 sbr=7 h=288 stall=0,0,0,70,0,0,0,0,0,0, | c1 i=42 ld=2 st=2 lm=2 b=0 sq=0 wfe=0 sx=0 sbr=2 h=41 stall=0,0,0,0,0,0,0,0,0,0, | mem 2,0,5,0,2,2,3"},
    {"drain_under_gate/rpi4",
     "cycles=338 completed=1 | c0 i=219 ld=1 st=7 lm=1 b=2 sq=0 wfe=0 sx=0 sbr=7 h=338 stall=0,0,0,120,0,0,0,0,0,0, | c1 i=42 ld=2 st=2 lm=2 b=0 sq=0 wfe=0 sx=0 sbr=2 h=41 stall=0,0,0,0,0,0,0,0,0,0, | mem 2,0,5,0,2,2,3"},
    {"max_cycles_in_run/kunpeng916",
     "cycles=1234 completed=0 | c0 i=1235 ld=0 st=0 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=0 h=0 stall=0,0,0,0,0,0,0,0,0,0, | c1 i=1235 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=0 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,0"},
    {"max_cycles_in_run/kirin960",
     "cycles=1234 completed=0 | c0 i=1235 ld=0 st=0 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=0 h=0 stall=0,0,0,0,0,0,0,0,0,0, | c1 i=1235 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=0 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,0"},
    {"max_cycles_in_run/kirin970",
     "cycles=1234 completed=0 | c0 i=1235 ld=0 st=0 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=0 h=0 stall=0,0,0,0,0,0,0,0,0,0, | c1 i=1235 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=0 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,0"},
    {"max_cycles_in_run/rpi4",
     "cycles=1234 completed=0 | c0 i=1235 ld=0 st=0 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=0 h=0 stall=0,0,0,0,0,0,0,0,0,0, | c1 i=1235 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=0 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,0,0,0,1,0,0"},
    {"wfe_woken_by_run/kunpeng916",
     "cycles=2203 completed=1 | c0 i=26 ld=4 st=0 lm=2 b=0 sq=1 wfe=2 sx=0 sbr=0 h=1495 stall=0,0,0,0,0,0,0,436,12,0, | c1 i=2204 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=2203 stall=0,0,0,0,0,0,0,0,0,0, | mem 0,1,0,1,1,0,2"},
    {"wfe_woken_by_run/kirin960",
     "cycles=2203 completed=1 | c0 i=18 ld=2 st=0 lm=2 b=0 sq=1 wfe=1 sx=0 sbr=0 h=285 stall=0,0,0,0,0,0,0,88,12,0, | c1 i=2204 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=2203 stall=0,0,0,0,0,0,0,0,0,0, | mem 1,0,1,0,1,0,0"},
    {"wfe_woken_by_run/kirin970",
     "cycles=2203 completed=1 | c0 i=18 ld=2 st=0 lm=2 b=0 sq=1 wfe=1 sx=0 sbr=0 h=281 stall=0,0,0,0,0,0,0,86,12,0, | c1 i=2204 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=2203 stall=0,0,0,0,0,0,0,0,0,0, | mem 1,0,1,0,1,0,0"},
    {"wfe_woken_by_run/rpi4",
     "cycles=2203 completed=1 | c0 i=18 ld=2 st=0 lm=2 b=0 sq=1 wfe=1 sx=0 sbr=0 h=297 stall=0,0,0,0,0,0,0,112,12,0, | c1 i=2204 ld=0 st=1 lm=0 b=0 sq=0 wfe=0 sx=0 sbr=1 h=2203 stall=0,0,0,0,0,0,0,0,0,0, | mem 1,0,1,0,1,0,0"},
    {"chaos_verified/kunpeng916",
     "cycles=5503 completed=1 | c0 i=341 ld=0 st=12 lm=0 b=6 sq=0 wfe=0 sx=0 sbr=12 h=4467 stall=0,0,0,4127,0,0,0,0,0,0, | c1 i=132 ld=0 st=1 lm=0 b=1 sq=0 wfe=0 sx=0 sbr=1 h=560 stall=0,0,429,0,0,0,0,0,0,0, | c2 i=2219 ld=157 st=0 lm=8 b=1 sq=0 wfe=0 sx=0 sbr=0 h=5503 stall=0,3284,1,0,0,0,0,0,0,0, | mem 0,7,0,6,3,5,154"},
    {"chaos_verified/kirin960",
     "cycles=869 completed=1 | c0 i=341 ld=0 st=12 lm=0 b=6 sq=0 wfe=0 sx=0 sbr=12 h=807 stall=0,0,0,467,0,0,0,0,0,0, | c1 i=132 ld=0 st=1 lm=0 b=1 sq=0 wfe=0 sx=0 sbr=1 h=196 stall=0,0,65,0,0,0,0,0,0,0, | c2 i=693 ld=48 st=0 lm=9 b=1 sq=0 wfe=0 sx=0 sbr=0 h=869 stall=0,176,1,0,0,0,0,0,0,0, | mem 7,0,6,0,4,5,44"},
    {"chaos_verified/kirin970",
     "cycles=871 completed=1 | c0 i=341 ld=0 st=12 lm=0 b=6 sq=0 wfe=0 sx=0 sbr=12 h=807 stall=0,0,0,467,0,0,0,0,0,0, | c1 i=132 ld=0 st=1 lm=0 b=1 sq=0 wfe=0 sx=0 sbr=1 h=194 stall=0,0,63,0,0,0,0,0,0,0, | c2 i=707 ld=49 st=0 lm=9 b=1 sq=0 wfe=0 sx=0 sbr=0 h=871 stall=0,164,1,0,0,0,0,0,0,0, | mem 7,0,6,0,4,5,45"},
    {"chaos_verified/rpi4",
     "cycles=905 completed=1 | c0 i=341 ld=0 st=12 lm=0 b=6 sq=0 wfe=0 sx=0 sbr=12 h=829 stall=0,0,0,489,0,0,0,0,0,0, | c1 i=132 ld=0 st=1 lm=0 b=1 sq=0 wfe=0 sx=0 sbr=1 h=226 stall=0,0,95,0,0,0,0,0,0,0, | c2 i=679 ld=47 st=0 lm=8 b=1 sq=0 wfe=0 sx=0 sbr=0 h=905 stall=0,226,1,0,0,0,0,0,0,0, | mem 6,0,5,0,4,4,45"},
};

TEST(NopRun, EdgeCasesMatchOneStepPerNop) {
  for (const Case& tc : kCases) {
    for (const PlatformSpec& spec : all_platforms()) {
      const std::string key = std::string(tc.name) + "/" + spec.name;
      Machine m(spec, 1u << 20);
      const RunConfig cfg = tc.setup(m);
      const RunResult r = m.run(cfg);
      for (const CoreStats& s : r.cores) {
        std::uint64_t sum = 0;
        for (std::uint64_t v : s.retired) sum += v;
        EXPECT_EQ(sum, s.instructions) << key;
      }
      const auto it = kPins.find(key);
      const std::string got = fingerprint(r);
      if (it == kPins.end() || it->second != got)
        ADD_FAILURE() << "pin mismatch; current value:\n    {\"" << key
                      << "\",\n     \"" << got << "\"},";
    }
  }
}

}  // namespace
}  // namespace armbar::sim
