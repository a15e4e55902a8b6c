#include "sim/machine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "sim/verify.hpp"

namespace armbar::sim {

Machine::Machine(PlatformSpec spec, std::size_t mem_bytes)
    : spec_(std::move(spec)),
      mem_(std::make_unique<MemorySystem>(spec_, mem_bytes)),
      active_(spec_.total_cores(), false),
      sched_(spec_.total_cores()) {
  cores_.reserve(spec_.total_cores());
  for (CoreId c = 0; c < spec_.total_cores(); ++c)
    cores_.push_back(std::make_unique<Core>(c, spec_, *mem_));
  mem_->set_invalidate_hook([this](CoreId victim, Addr line, Cycle at) {
    Core& core = *cores_[victim];
    core.on_invalidate(line, at);
    // An invalidation can pull a parked core's wake earlier; mirror the new
    // attention into the scheduler so the run loop sees it.
    // on_invalidate only ever *lowers* next_attention (and only for parked
    // cores), so when it did not move the slot is still exact and the
    // scheduler write can be skipped entirely. A lowered slot may belong to
    // a core the run loop's sweep has already passed, so flag it: the
    // minimum the sweep folded up is then stale.
    const Cycle na = core.next_attention();
    if (na < sched_.at(victim) && active_[victim]) {
      sched_.set(victim, na);
      woke_ = true;
    }
  });
}

ProgramHandle Machine::load_program(CoreId c, Program prog) {
  ProgramHandle h = decode_program(std::move(prog));
  load_program(c, h);
  return h;
}

void Machine::load_program(CoreId c, ProgramHandle prog) {
  ARMBAR_CHECK(c < num_cores());
  ARMBAR_CHECK_MSG(prog != nullptr, "load_program: null program handle");
  cores_[c]->load_program(std::move(prog));
  active_[c] = true;
  sched_.set(c, cores_[c]->next_attention());
}

void Machine::set_tso(bool tso) {
  for (auto& c : cores_) c->set_tso(tso);
}

void Machine::set_tracer(trace::Tracer* t) {
  if (t != nullptr) t->set_stall_cause_names(stall_cause_names());
  for (auto& c : cores_) c->set_tracer(t);
  mem_->set_tracer(t);
  tracer_ = t;
}

void Machine::reset_stats() {
  for (auto& c : cores_) c->reset_stats();
  mem_->reset_stats();
}

std::vector<std::uint64_t> Machine::extract_state(
    const std::vector<std::pair<CoreId, Reg>>& regs,
    const std::vector<Addr>& addrs) const {
  std::vector<std::uint64_t> out;
  out.reserve(regs.size() + addrs.size());
  for (const auto& [c, r] : regs) {
    ARMBAR_CHECK_MSG(c < cores_.size(), "extract_state: core out of range");
    out.push_back(core(c).reg(r));
  }
  for (Addr a : addrs) out.push_back(mem_->peek(a));
  return out;
}

RunResult Machine::run(const RunConfig& cfg) {
  ARMBAR_PROF_SCOPE(kSimRun);
  ARMBAR_CHECK_MSG(!ran_, "Machine::run() may only be called once");
  ran_ = true;

  const Cycle max_cycles = cfg.max_cycles;
  const bool attach = cfg.tracer != nullptr;
  if (attach) set_tracer(cfg.tracer);
  if (cfg.stats == RunConfig::Stats::kResetBeforeRun) reset_stats();

#if !defined(ARMBAR_FAULT_DISABLED)
  // Fault injection: an explicit plan wins; otherwise fall back to the
  // process-global plan the runner installs for chaos sweeps. The engine is
  // fanned out the same way a tracer is — private setters, one attach point.
  const fault::FaultPlan* plan =
      cfg.fault != nullptr ? cfg.fault : fault::global_fault_plan();
  if (plan != nullptr && plan->enabled()) {
    fault_engine_ = std::make_unique<fault::FaultEngine>(*plan, num_cores());
    for (auto& c : cores_) c->set_fault_engine(fault_engine_.get());
    mem_->set_fault_engine(fault_engine_.get());
  }
#endif

  RunResult res;
  std::vector<Core*> live;
  std::vector<std::uint32_t> live_ids;
  live.reserve(num_cores());
  live_ids.reserve(num_cores());
  for (CoreId c = 0; c < num_cores(); ++c)
    if (active_[c]) {
      live.push_back(cores_[c].get());
      live_ids.push_back(c);
    }

  const Cycle verify_every =
      cfg.verify_every != 0 ? cfg.verify_every : global_verify_every();
  const MachineVerifier verifier(*this);
  Cycle next_verify = verify_every != 0 ? verify_every : kNeverCycle;

  // Watchdog: progress = anything retiring anywhere. Instructions alone
  // would flag a legitimate polling loop's *partner* core... except the
  // poller itself retires instructions, so the sum only freezes when every
  // live core is truly stuck (e.g. a barrier waiting on a drain that never
  // starts). Sampled once per window, not per event.
  const auto progress_signature = [&live] {
    std::uint64_t sig = 0;
    for (const Core* core : live) {
      const CoreStats& s = core->stats();
      sig += s.instructions + s.sb_retired + s.squashes;
    }
    return sig;
  };
  const Cycle watchdog = cfg.watchdog_cycles;
  std::uint64_t progress_sig = progress_signature();
  Cycle progress_cycle = 0;

  Cycle now = 0;
  std::uint64_t steps = 0;
  {
    // One kSimSchedule scope for the whole loop (the PR-6 build re-entered
    // it every iteration — ~25% of sim wall time was the scope's own clock
    // reads). Step-internal phases (kSimSbDrain/kSimIssue/kSimCoherence/
    // kSimVerify) nest inside it and subtract out as children.
    ARMBAR_PROF_SCOPE(kSimSchedule);
    Cycle next = sched_.min();
    while (true) {
      if (next == kNeverCycle) {
        // idle() <=> next_attention()==kNeverCycle after a step, so an empty
        // queue means completion — but keep the deadlock diagnostic exact.
        for (Core* core : live)
          ARMBAR_CHECK_MSG(core->idle(),
                           "simulation deadlock: no core schedulable");
        res.completed = true;
        break;
      }
      now = std::max(now, next);
      if (now > max_cycles) {
        res.completed = false;
        break;
      }
      // Step pass: id-order forward sweep re-reading the live slots, which
      // also folds up the next iteration's minimum. A step can lower a
      // *later* core's attention to <= now (coherence invalidation waking a
      // WFE parker) and that core must still be stepped this cycle; and
      // MemorySystem mutation order (hence simulated timing) must stay
      // exactly the id-order of the PR-6 loop.
      // The sweep reads the scheduler's dense slot array, not the cores:
      // slot == next_attention() by construction (kNeverCycle when idle),
      // so the common not-due case costs one L1 load per live core instead
      // of chasing each Core pointer for idle()/next_attention() — on the
      // 64-core preset that chase dominated short contended runs.
      //
      // `cap` is the next cycle at which the machine itself reads core
      // state: the cycle limit, the verifier cadence and the watchdog
      // sample. A nop run never retires past it, and a run starting on an
      // observation cycle retires one nop, so every core's pc and counters
      // read there exactly as under one step per nop.
      const auto observe_cap = [now](Cycle at) {
        return at > now ? at : now + 1;
      };
      Cycle cap = max_cycles == kNeverCycle ? kNeverCycle : max_cycles + 1;
      if (next_verify != kNeverCycle) cap = std::min(cap, observe_cap(next_verify));
      if (watchdog != 0 && progress_cycle <= kNeverCycle - watchdog)
        cap = std::min(cap, observe_cap(progress_cycle + watchdog));
      const std::vector<Cycle>& due = sched_.slots();
      next = kNeverCycle;
      woke_ = false;
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::uint32_t c = live_ids[i];
        if (due[c] <= now) {
          Core* core = live[i];
          core->step(now, cap);
          ++steps;
          sched_.set(c, core->next_attention());
        }
        next = std::min(next, due[c]);
      }
      if (woke_) next = sched_.min();
      if (now >= next_verify) {
        ARMBAR_PROF_SCOPE(kSimVerify);
        if (std::string v = verifier.check(); !v.empty())
          throw InvariantViolation(
              verifier.diagnose("invariant_violation", v, now));
        next_verify = now + verify_every;
      }
      if (watchdog != 0 && now - progress_cycle >= watchdog) {
        const std::uint64_t sig = progress_signature();
        if (sig == progress_sig)
          throw SimHang(verifier.diagnose(
              "hang", "no instruction retired, store drained or branch "
                      "squashed in " +
                          std::to_string(now - progress_cycle) + " cycles",
              now));
        progress_sig = sig;
        progress_cycle = now;
      }
    }
  }

  // One closing sweep so a corruption introduced after the last cadence
  // tick (or a run shorter than the cadence) is still caught.
  if (verify_every != 0) {
    ARMBAR_PROF_SCOPE(kSimVerify);
    if (std::string v = verifier.check(); !v.empty())
      throw InvariantViolation(verifier.diagnose("invariant_violation", v, now));
  }

  Cycle end = 0;
  res.cores.reserve(live.size());
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (!active_[c]) continue;
    res.cores.push_back(cores_[c]->stats());
    end = std::max(end, cores_[c]->stats().halted_at);
  }
  res.cycles = res.completed ? end : max_cycles;
  res.mem = mem_->stats();
  if (prof::enabled()) {
    std::uint64_t instrs = 0;
    std::uint64_t retired[kNumOpClasses] = {};
    for (const CoreStats& s : res.cores) {
      instrs += s.instructions;
      for (std::size_t k = 0; k < kNumOpClasses; ++k) retired[k] += s.retired[k];
    }
    ARMBAR_PROF_COUNT(kSimInstructions, instrs);
    ARMBAR_PROF_COUNT(kSimCycles, res.cycles);
    ARMBAR_PROF_COUNT(kSimRuns, 1);
    ARMBAR_PROF_COUNT(kSimSteps, steps);
    // The retired.* counters follow OpClass order (prof sits below sim).
    static_assert(static_cast<std::size_t>(prof::Counter::kSimRetiredDmbSt) -
                      static_cast<std::size_t>(prof::Counter::kSimRetiredNop) +
                      1 ==
                  kNumOpClasses);
    for (std::size_t k = 0; k < kNumOpClasses; ++k)
      prof::count(static_cast<prof::Counter>(
                      static_cast<std::size_t>(prof::Counter::kSimRetiredNop) + k),
                  retired[k]);
  }
  return res;
}

}  // namespace armbar::sim
