#include "opt/driver.hpp"

#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "sim/isa.hpp"
#include "trace/json_report.hpp"

namespace armbar::opt {

namespace {

using sim::Op;

std::string after_token(const model::ConcurrentProgram& prog,
                        const RewriteCandidate& c) {
  switch (c.kind) {
    case RewriteKind::kDeleteRedundant:
      return "-";
    case RewriteKind::kAcquireConvert:
      return sim::op_token(Op::kLdar);
    case RewriteKind::kReleaseConvert:
      return sim::op_token(Op::kStlr);
    case RewriteKind::kDsbToDmb: {
      const Op op = prog.threads[c.thread].code[c.pc].op;
      return sim::op_token(op == Op::kDsbFull  ? Op::kDmbFull
                           : op == Op::kDsbSt ? Op::kDmbSt
                                              : Op::kDmbLd);
    }
    case RewriteKind::kDowngradeToSt:
      return sim::op_token(Op::kDmbSt);
    case RewriteKind::kDowngradeToLd:
      return sim::op_token(Op::kDmbLd);
  }
  return "?";
}

/// One real oracle enumeration, tallied into the result's counters.
model::OutcomeSet enumerate(const model::ConcurrentProgram& prog,
                            const model::ModelOptions& opts, OptResult* r) {
  model::OutcomeSet s = model::enumerate_outcomes(prog, opts);
  ++r->oracle_calls;
  r->oracle_ns += s.enum_ns;
  r->combos += s.combos;
  r->combos_skipped += s.combos_skipped;
  r->candidates += s.candidates;
  return s;
}

}  // namespace

OptResult optimize(const model::ConcurrentProgram& prog,
                   const OptOptions& opts) {
  OptResult r;
  r.original = prog;
  r.optimized = prog;
  r.barriers_before = count_standalone_barriers(prog);
  r.barriers_after = r.barriers_before;

  // Resolve the pass selection up front: an unknown name is a caller bug
  // and must not silently optimize with fewer passes than requested.
  std::vector<const Pass*> passes;
  if (opts.passes.empty()) {
    for (const Pass& p : PassRegistry::global().passes()) passes.push_back(&p);
  } else {
    for (const std::string& name : opts.passes) {
      const Pass* p = PassRegistry::global().find(name);
      if (p == nullptr) {
        r.model_error = "unknown pass '" + name + "'";
        return r;
      }
      passes.push_back(p);
    }
  }

  const model::OutcomeSet baseline = enumerate(prog, opts.model, &r);
  if (!baseline.ok() || !baseline.complete) {
    r.model_error = !baseline.ok()
                        ? baseline.error
                        : "baseline enumeration incomplete (budget cap hit)";
    return r;
  }
  r.model_valid = true;

  model::ConcurrentProgram cur = prog;
  std::set<std::string> rejected;  // per-layout signatures the oracle refused
  while (r.oracle_calls < opts.max_oracle_calls) {
    const RewriteCandidate* picked = nullptr;
    std::vector<RewriteCandidate> cands;
    std::string picked_pass;
    for (const Pass* p : passes) {
      cands = p->collect(cur);
      for (const RewriteCandidate& c : cands)
        if (rejected.count(p->name + "/" + c.signature()) == 0) {
          picked = &c;
          picked_pass = p->name;
          break;
        }
      if (picked != nullptr) break;
    }
    if (picked == nullptr) break;  // converged: every candidate decided

    RewriteRecord rec;
    rec.cand = *picked;
    rec.pass = picked_pass;
    rec.before =
        sim::op_token(cur.threads[picked->thread].code[picked->pc].op);
    rec.after = after_token(cur, *picked);

    model::ConcurrentProgram trial;
    if (!apply_rewrite(cur, *picked, &trial)) {
      // Collector/matcher disagreement — never expected; reject the
      // signature so the search cannot spin on it.
      rejected.insert(picked_pass + "/" + picked->signature());
      continue;
    }
    ++r.attempted;
    const model::OutcomeSet got = enumerate(trial, opts.model, &r);
    const model::EquivalenceVerdict v = model::compare_outcome_sets(baseline, got);
    if (v.equal) {
      rec.verdict = RewriteRecord::Verdict::kAccepted;
      cur = std::move(trial);
      ++r.accepted;
    } else {
      rec.verdict = RewriteRecord::Verdict::kRestored;
      rec.detail = v.detail;
      rejected.insert(picked_pass + "/" + picked->signature());
      ++r.restored;
    }
    r.rewrites.push_back(std::move(rec));
  }

  // Every rewrite applied so far carries its own equivalence proof, so
  // `cur` is the last known-verified program — the snapshot the final
  // verification restores to if the planted rewrite below corrupts it.
  const model::ConcurrentProgram verified_snapshot = cur;

  if (opts.plant == OptOptions::Plant::kDeleteBypassingOracle) {
    // Aim at a barrier the oracle refused to weaken during the search:
    // deleting it is weaker still, so the plant is unsound by the oracle's
    // own verdict. Registry order puts refused deletes first. With no
    // refusal, fall back to the first surviving barrier, whose delete may
    // turn out outcome-equal (a harmless plant).
    std::optional<RewriteCandidate> target;
    for (const Pass* p : passes) {
      for (const RewriteCandidate& c : p->collect(cur))
        if (rejected.count(p->name + "/" + c.signature()) != 0) {
          target = RewriteCandidate{c.thread, c.pc};  // a delete at its site
          break;
        }
      if (target) break;
    }
    for (std::uint32_t ti = 0; ti < cur.threads.size() && !target; ++ti)
      for (std::uint32_t pc = 0; pc < cur.threads[ti].code.size(); ++pc)
        if (sim::is_barrier(cur.threads[ti].code[pc].op)) {
          target = RewriteCandidate{ti, pc};
          break;
        }
    model::ConcurrentProgram trial;
    if (target && apply_rewrite(cur, *target, &trial)) {
      RewriteRecord rec;
      rec.cand = *target;
      rec.pass = "planted";
      rec.planted = true;
      rec.before = sim::op_token(cur.threads[target->thread].code[target->pc].op);
      rec.after = "-";
      cur = std::move(trial);
      ++r.attempted;
      ++r.accepted;  // accepted *without* an oracle check — the bug
      r.planted_injected = true;
      r.rewrites.push_back(std::move(rec));
    }
  }

  if (opts.final_verify) {
    // The snapshot is the last program the oracle verified (the baseline,
    // or the last accepted trial, whose set already compared equal), so
    // only a program that differs from it — one the plant rewrote —
    // needs a real enumeration.
    const model::EquivalenceVerdict v =
        cur == verified_snapshot
            ? model::EquivalenceVerdict{true, true, {}}
            : model::compare_outcome_sets(baseline,
                                          enumerate(cur, opts.model, &r));
    if (v.equal) {
      r.verified_equal = true;
      r.planted_harmless = r.planted_injected;  // the delete was legal
    } else {
      // The per-candidate proofs cover everything up to the snapshot, so a
      // mismatch here can only come from a rewrite that skipped the oracle.
      cur = verified_snapshot;
      bool restored_any = false;
      for (RewriteRecord& rec : r.rewrites)
        if (rec.planted && rec.verdict == RewriteRecord::Verdict::kAccepted) {
          rec.verdict = RewriteRecord::Verdict::kRestored;
          rec.detail = "caught by final verification: " + v.detail;
          --r.accepted;
          ++r.restored;
          restored_any = true;
          r.planted_caught = true;
        }
      if (restored_any) {
        r.verified_equal = true;  // back on the per-candidate-proven program
      } else {
        // No planted rewrite to blame: internal error. Drop every rewrite.
        cur = prog;
        for (RewriteRecord& rec : r.rewrites)
          if (rec.verdict == RewriteRecord::Verdict::kAccepted) {
            rec.verdict = RewriteRecord::Verdict::kRestored;
            rec.detail = "final verification failed: " + v.detail;
            --r.accepted;
            ++r.restored;
          }
        r.model_error = "final verification failed: " + v.detail;
      }
    }
  }

  r.optimized = std::move(cur);
  r.barriers_after = count_standalone_barriers(r.optimized);
  return r;
}

std::string describe_decisions(const OptResult& r) {
  std::ostringstream os;
  os << "program " << r.original.name << "\n";
  if (!r.model_valid) {
    os << "model-invalid: " << r.model_error << "\n";
    return os.str();
  }
  os << "barriers " << r.barriers_before << " -> " << r.barriers_after << "\n";
  for (const RewriteRecord& rec : r.rewrites) {
    os << (rec.verdict == RewriteRecord::Verdict::kAccepted ? "accepted"
                                                            : "restored")
       << " " << rec.cand.signature() << " " << rec.before << " -> "
       << rec.after;
    if (rec.planted) os << " [planted]";
    if (!rec.detail.empty()) os << " : " << rec.detail;
    os << "\n";
  }
  os << (r.verified_equal ? "verified-equal" : "unverified") << "\n";
  return os.str();
}

trace::Json opt_report_json(const std::vector<OptResult>& results) {
  trace::Json programs = trace::Json::array();
  for (const OptResult& r : results) {
    trace::Json p = trace::Json::object();
    p.set("name", r.original.name);
    p.set("model_valid", r.model_valid);
    if (!r.model_valid) p.set("model_error", r.model_error);
    p.set("rewrites_attempted", static_cast<std::uint64_t>(r.attempted));
    p.set("rewrites_accepted", static_cast<std::uint64_t>(r.accepted));
    p.set("rewrites_restored", static_cast<std::uint64_t>(r.restored));
    p.set("barriers_before", static_cast<std::uint64_t>(r.barriers_before));
    p.set("barriers_after", static_cast<std::uint64_t>(r.barriers_after));
    p.set("verified_equal", r.verified_equal);
    p.set("oracle_calls", r.oracle_calls);
    p.set("combos", r.combos);
    p.set("combos_skipped", r.combos_skipped);
    p.set("candidates", r.candidates);
    if (r.planted_injected) {
      p.set("planted", true);
      p.set("planted_caught", r.planted_caught);
      p.set("planted_harmless", r.planted_harmless);
    }
    trace::Json rws = trace::Json::array();
    for (const RewriteRecord& rec : r.rewrites) {
      trace::Json j = trace::Json::object();
      j.set("pass", rec.pass);
      j.set("thread", static_cast<std::uint64_t>(rec.cand.thread));
      j.set("pc", static_cast<std::uint64_t>(rec.cand.pc));
      j.set("kind", to_string(rec.cand.kind));
      j.set("before", rec.before);
      j.set("after", rec.after);
      j.set("verdict", rec.verdict == RewriteRecord::Verdict::kAccepted
                           ? "accepted"
                           : "restored");
      if (rec.planted) j.set("planted", true);
      if (!rec.detail.empty()) j.set("detail", rec.detail);
      rws.push(std::move(j));
    }
    p.set("rewrites", std::move(rws));
    programs.push(std::move(p));
  }
  return opt_report_section(std::move(programs));
}

trace::Json opt_report_section(trace::Json programs) {
  trace::Json totals = trace::Json::object();
  totals.set("programs", static_cast<std::uint64_t>(programs.items().size()));
  for (const char* field : trace::kOptReportCounters) {
    double sum = 0;
    for (const trace::Json& p : programs.items())
      sum += p.find(field)->number();
    totals.set(field, sum);
  }
  double eliminated = 0;
  for (const trace::Json& p : programs.items()) {
    const double before = p.find("barriers_before")->number();
    const double after = p.find("barriers_after")->number();
    if (after < before) eliminated += before - after;
  }
  totals.set("barriers_eliminated", eliminated);

  trace::Json out = trace::Json::object();
  out.set("schema", trace::kOptReportSchema);
  out.set("programs", std::move(programs));
  out.set("totals", std::move(totals));
  return out;
}

}  // namespace armbar::opt
