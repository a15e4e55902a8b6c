// Bound-search driver tests (ISSUE 10): accepted rewrites prove out on the
// Table-1 shapes the paper optimizes, inadmissible ones restore with an
// oracle witness, and the planted-unsoundness hook demonstrates the final
// verification is load-bearing — an illegal rewrite that bypasses the
// per-candidate oracle is caught and rolled back, and only because the
// final check ran.
#include "opt/driver.hpp"

#include <gtest/gtest.h>

#include "fuzz/gen.hpp"
#include "litmus/shapes.hpp"
#include "sim/isa.hpp"
#include "sim/program.hpp"
#include "trace/json_report.hpp"

namespace armbar::opt {
namespace {

using sim::Asm;
using sim::Op;
using sim::X0;
using sim::X1;
using sim::X2;
using sim::X3;
using sim::X4;

model::ConcurrentProgram shape_prog(const std::string& name) {
  model::ConcurrentProgram prog = litmus::table1_shape(name).model_prog;
  prog.name = name;  // disambiguate the MP family variants
  return prog;
}

void expect_arithmetic(const OptResult& r) {
  EXPECT_EQ(r.attempted, r.accepted + r.restored);
  EXPECT_EQ(r.rewrites.size(), r.attempted);
}

TEST(Driver, MpDmbFullLosesBothBarriers) {
  const OptResult r = optimize(shape_prog("MP+dmb.full"));
  ASSERT_TRUE(r.model_valid) << r.model_error;
  EXPECT_TRUE(r.verified_equal);
  expect_arithmetic(r);
  EXPECT_EQ(r.barriers_before, 2u);
  EXPECT_EQ(r.barriers_after, 0u);
  EXPECT_GE(r.accepted, 2u);
  // Both eliminations are conversions, not deletions: the orderings are
  // still enforced, by half-barriers riding on the accesses.
  bool saw_stlr = false, saw_ldar = false;
  for (const RewriteRecord& rec : r.rewrites)
    if (rec.verdict == RewriteRecord::Verdict::kAccepted) {
      saw_stlr = saw_stlr || rec.after == "stlr";
      saw_ldar = saw_ldar || rec.after == "ldar";
    }
  EXPECT_TRUE(saw_stlr);
  EXPECT_TRUE(saw_ldar);
}

TEST(Driver, SbDmbFullKeepsBothBarriersWithWitnesses) {
  // SB genuinely needs full barriers: every weakening reintroduces the
  // (0,0) outcome, so the oracle must restore every attempt.
  const OptResult r = optimize(shape_prog("SB+dmb.full"));
  ASSERT_TRUE(r.model_valid) << r.model_error;
  EXPECT_TRUE(r.verified_equal);
  expect_arithmetic(r);
  EXPECT_EQ(r.barriers_before, 2u);
  EXPECT_EQ(r.barriers_after, 2u);
  EXPECT_EQ(r.accepted, 0u);
  ASSERT_GE(r.restored, 1u);
  for (const RewriteRecord& rec : r.rewrites) {
    EXPECT_EQ(rec.verdict, RewriteRecord::Verdict::kRestored);
    EXPECT_FALSE(rec.detail.empty()) << rec.cand.signature();
  }
}

TEST(Driver, PlantedIllegalRewriteIsCaughtAndRestored) {
  OptOptions opts;
  opts.plant = OptOptions::Plant::kDeleteBypassingOracle;
  const OptResult r = optimize(shape_prog("SB+dmb.full"), opts);
  ASSERT_TRUE(r.model_valid) << r.model_error;
  ASSERT_TRUE(r.planted_injected);
  EXPECT_TRUE(r.planted_caught);
  EXPECT_TRUE(r.verified_equal);  // back on the per-candidate-proven program
  expect_arithmetic(r);
  EXPECT_EQ(r.barriers_after, r.barriers_before);  // the plant was undone
  EXPECT_FALSE(r.planted_harmless);

  const RewriteRecord* planted = nullptr;
  for (const RewriteRecord& rec : r.rewrites)
    if (rec.planted) planted = &rec;
  ASSERT_NE(planted, nullptr);
  EXPECT_EQ(planted->pass, "planted");
  EXPECT_EQ(planted->verdict, RewriteRecord::Verdict::kRestored);
  EXPECT_NE(planted->detail.find("caught by final verification"),
            std::string::npos)
      << planted->detail;
  // The plant deletes a barrier the oracle refused to weaken.
  bool refused_there = false;
  for (const RewriteRecord& rec : r.rewrites)
    refused_there = refused_there ||
                    (!rec.planted && rec.cand.thread == planted->cand.thread &&
                     rec.cand.pc == planted->cand.pc &&
                     rec.verdict == RewriteRecord::Verdict::kRestored);
  EXPECT_TRUE(refused_there) << describe_decisions(r);
}

TEST(Driver, PlantOnALegalDeleteIsHarmlessNotAMiss) {
  // Fuzz seed 1's only barrier is an isb the search never proposes to
  // weaken, so nothing was refused and the plant falls back to it. Its
  // delete leaves the allowed set unchanged: the final verification finds
  // the program outcome-equal and the plant is reported harmless, neither
  // caught nor missed.
  OptOptions opts;
  opts.plant = OptOptions::Plant::kDeleteBypassingOracle;
  const OptResult r = optimize(fuzz::generate(1, {}), opts);
  ASSERT_TRUE(r.model_valid) << r.model_error;
  ASSERT_TRUE(r.planted_injected);
  EXPECT_EQ(r.restored, 0u);
  EXPECT_FALSE(r.planted_caught);
  EXPECT_TRUE(r.planted_harmless);
  EXPECT_TRUE(r.verified_equal);
  expect_arithmetic(r);

  const trace::Json report = opt_report_json({r});
  const trace::Json& entry = report.find("programs")->items().at(0);
  ASSERT_NE(entry.find("planted_harmless"), nullptr);
  EXPECT_TRUE(entry.find("planted_harmless")->boolean());
  EXPECT_FALSE(entry.find("planted_caught")->boolean());
}

TEST(Driver, PlantSlipsThroughWithoutFinalVerify) {
  // Control experiment: with the final verification off, the planted
  // rewrite survives and the program is weaker than the baseline — the
  // final check, not luck, is what catches it.
  OptOptions opts;
  opts.plant = OptOptions::Plant::kDeleteBypassingOracle;
  opts.final_verify = false;
  const OptResult r = optimize(shape_prog("SB+dmb.full"), opts);
  ASSERT_TRUE(r.model_valid) << r.model_error;
  ASSERT_TRUE(r.planted_injected);
  EXPECT_FALSE(r.planted_caught);
  EXPECT_FALSE(r.planted_harmless);  // nothing verified it either way
  EXPECT_FALSE(r.verified_equal);
  EXPECT_EQ(r.barriers_after, r.barriers_before - 1);
}

TEST(Driver, FinalVerifyReusesOnlyAnEnumeratedProgram) {
  // Without a plant the final program is byte-identical to the last
  // accepted trial, whose outcome set already compared equal, so the final
  // check enumerates nothing: one baseline enumeration plus one per
  // attempted rewrite, no more.
  const OptResult clean = optimize(shape_prog("MP+dmb.full"));
  ASSERT_TRUE(clean.model_valid) << clean.model_error;
  ASSERT_GE(clean.accepted, 1u);
  EXPECT_TRUE(clean.verified_equal);
  EXPECT_EQ(clean.oracle_calls, 1u + clean.attempted);

  // Nothing accepted: the final program is the baseline program itself.
  const OptResult kept = optimize(shape_prog("SB+dmb.full"));
  ASSERT_EQ(kept.accepted, 0u);
  EXPECT_TRUE(kept.verified_equal);
  EXPECT_EQ(kept.oracle_calls, 1u + kept.attempted);

  // The plant bypasses the oracle, so the driver never enumerated the
  // program it leaves behind: the final check must enumerate it (one call
  // beyond the search), and that enumeration is what catches the plant.
  OptOptions planted_opts;
  planted_opts.plant = OptOptions::Plant::kDeleteBypassingOracle;
  const OptResult planted = optimize(shape_prog("SB+dmb.full"), planted_opts);
  ASSERT_TRUE(planted.planted_injected);
  EXPECT_TRUE(planted.planted_caught);
  EXPECT_TRUE(planted.verified_equal);
  EXPECT_EQ(planted.oracle_calls, 1u + kept.attempted + 1u);

  // Control: the same plant with the final check off slips through, and
  // no enumeration beyond the search ran.
  planted_opts.final_verify = false;
  const OptResult slipped = optimize(shape_prog("SB+dmb.full"), planted_opts);
  ASSERT_TRUE(slipped.planted_injected);
  EXPECT_FALSE(slipped.planted_caught);
  EXPECT_FALSE(slipped.verified_equal);
  EXPECT_EQ(slipped.oracle_calls, 1u + kept.attempted);
}

TEST(Driver, OracleCountersSumTheRealEnumerations) {
  const OptResult r = optimize(shape_prog("MP+dmb.full"));
  const model::OutcomeSet base =
      model::enumerate_outcomes(shape_prog("MP+dmb.full"));
  // Every trial of a Table-1 shape has as many combos as its baseline
  // (barrier rewrites never change a load's value choices).
  EXPECT_EQ(r.combos, r.oracle_calls * base.combos);
  EXPECT_LE(r.combos_skipped, r.combos);
  EXPECT_GE(r.candidates, base.candidates);
}

TEST(Driver, UnknownPassFailsTheWholeOptimization) {
  OptOptions opts;
  opts.passes = {"redundancy", "nonesuch"};
  const OptResult r = optimize(shape_prog("MP+dmb.full"), opts);
  EXPECT_FALSE(r.model_valid);
  EXPECT_NE(r.model_error.find("unknown pass"), std::string::npos)
      << r.model_error;
  EXPECT_EQ(r.attempted, 0u);
  EXPECT_EQ(r.barriers_after, r.barriers_before);
}

TEST(Driver, RedundancyPassDeletesDominatedBarrier) {
  // MP producer with a doubled release edge: dmb.ish followed by a dmb.st
  // it dominates. The redundancy pass alone (no conversions) must delete
  // one of the pair and keep the ordering intact.
  Asm t0;
  t0.movi(X0, 16).movi(X2, 24).movi(X1, 23);
  t0.str(X1, X0);    // data
  t0.dmb_full();
  t0.dmb_st();       // dominated
  t0.movi(X1, 1);
  t0.str(X1, X2);    // flag
  t0.halt();
  Asm t1;
  t1.movi(X0, 16).movi(X2, 24);
  t1.ldr(X3, X2);    // flag
  t1.dmb_ld();
  t1.ldr(X4, X0);    // data
  t1.halt();
  model::ConcurrentProgram prog;
  prog.name = "mp-doubled-release";
  prog.threads = {t0.take("t0"), t1.take("t1")};
  prog.init = {{16, 0}, {24, 0}};
  prog.observe_regs = {{1, X3}, {1, X4}};

  OptOptions opts;
  opts.passes = {"redundancy"};
  const OptResult r = optimize(prog, opts);
  ASSERT_TRUE(r.model_valid) << r.model_error;
  EXPECT_TRUE(r.verified_equal);
  expect_arithmetic(r);
  ASSERT_GE(r.accepted, 1u);
  EXPECT_EQ(r.barriers_after, r.barriers_before - r.accepted);
  for (const RewriteRecord& rec : r.rewrites)
    if (rec.verdict == RewriteRecord::Verdict::kAccepted) {
      EXPECT_EQ(rec.pass, "redundancy");
      EXPECT_EQ(rec.cand.kind, RewriteKind::kDeleteRedundant);
    }
}

TEST(Driver, OracleBudgetStopsTheSearch) {
  // max_oracle_calls = 1 is consumed by the baseline: the search never
  // starts, nothing is rewritten, and the final verification (which runs
  // regardless — it is the safety net) trivially passes.
  OptOptions opts;
  opts.max_oracle_calls = 1;
  const OptResult r = optimize(shape_prog("MP+dmb.full"), opts);
  ASSERT_TRUE(r.model_valid) << r.model_error;
  EXPECT_EQ(r.attempted, 0u);
  EXPECT_EQ(r.barriers_after, r.barriers_before);
  EXPECT_TRUE(r.verified_equal);
}

TEST(Driver, DescribeDecisionsPinsTheLineFormat) {
  const OptResult r = optimize(shape_prog("MP+dmb.full"));
  const std::string text = describe_decisions(r);
  EXPECT_NE(text.find("program MP+dmb.full\n"), std::string::npos) << text;
  EXPECT_NE(text.find("barriers 2 -> 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("accepted "), std::string::npos) << text;
  EXPECT_NE(text.rfind("verified-equal\n"), std::string::npos) << text;
}

// ---- opt_report_json through the bench-report validator -----------------

trace::Json report_with(const std::vector<OptResult>& results) {
  trace::ReportBuilder rb("opt_test", "driver test report");
  rb.add_check("synthetic", true);
  rb.set_ok(true);
  rb.set_opt_report(opt_report_json(results));
  return rb.build();
}

TEST(OptReport, ValidatesInsideBenchReport) {
  const OptResult a = optimize(shape_prog("MP+dmb.full"));
  const OptResult b = optimize(shape_prog("SB+dmb.full"));
  const trace::Json doc = report_with({a, b});
  std::string err;
  EXPECT_TRUE(trace::validate_bench_report(doc, &err)) << err;

  const trace::Json* rep = doc.find("opt_report");
  ASSERT_NE(rep, nullptr);
  ASSERT_NE(rep->find("schema"), nullptr);
  EXPECT_EQ(rep->find("schema")->str(), trace::kOptReportSchema);
  EXPECT_EQ(rep->find("programs")->size(), 2u);
}

TEST(OptReport, CounterInflationIsRejected) {
  // rewrites_attempted >= accepted + restored is a schema rule (ISSUE 10
  // small fix): inflate 'accepted' on one program and validation must fail.
  const OptResult a = optimize(shape_prog("MP+dmb.full"));
  trace::Json doc = report_with({a});
  trace::Json* rep = doc.find_mut("opt_report");
  ASSERT_NE(rep, nullptr);
  trace::Json programs = *rep->find("programs");
  trace::Json entry = programs.items()[0];
  entry.set("rewrites_accepted",
            entry.find("rewrites_attempted")->number() + 1);
  trace::Json rebuilt = trace::Json::array();
  rebuilt.push(std::move(entry));
  rep->set("programs", std::move(rebuilt));
  std::string err;
  EXPECT_FALSE(trace::validate_bench_report(doc, &err));
}

TEST(OptReport, TotalsMustMatchPerProgramSums) {
  const OptResult a = optimize(shape_prog("MP+dmb.full"));
  trace::Json doc = report_with({a});
  trace::Json* totals = doc.find_mut("opt_report")->find_mut("totals");
  ASSERT_NE(totals, nullptr);
  totals->set("rewrites_attempted",
              totals->find("rewrites_attempted")->number() + 1);
  std::string err;
  EXPECT_FALSE(trace::validate_bench_report(doc, &err));
}

TEST(OptReport, OracleCounterTotalsMustMatchPerProgramSums) {
  const OptResult a = optimize(shape_prog("MP+dmb.full"));
  const OptResult b = optimize(shape_prog("SB+dmb.full"));
  const trace::Json doc = report_with({a, b});
  const trace::Json* totals = doc.find("opt_report")->find("totals");
  EXPECT_EQ(totals->find("oracle_calls")->number(),
            static_cast<double>(a.oracle_calls + b.oracle_calls));
  EXPECT_EQ(totals->find("candidates")->number(),
            static_cast<double>(a.candidates + b.candidates));
  for (const char* field :
       {"oracle_calls", "combos", "combos_skipped", "candidates"}) {
    trace::Json bad = doc;
    trace::Json* t = bad.find_mut("opt_report")->find_mut("totals");
    t->set(field, t->find(field)->number() + 1);
    std::string err;
    EXPECT_FALSE(trace::validate_bench_report(bad, &err)) << field;
    EXPECT_NE(err.find(field), std::string::npos) << err;
  }
}

TEST(OptReport, UnknownVerdictIsRejected) {
  const OptResult a = optimize(shape_prog("MP+dmb.full"));
  trace::Json doc = report_with({a});
  trace::Json* rep = doc.find_mut("opt_report");
  trace::Json programs = *rep->find("programs");
  trace::Json entry = programs.items()[0];
  trace::Json rewrites = *entry.find("rewrites");
  ASSERT_GE(rewrites.size(), 1u);
  trace::Json rw = rewrites.items()[0];
  rw.set("verdict", "maybe");
  trace::Json rws = trace::Json::array();
  rws.push(std::move(rw));
  entry.set("rewrites", std::move(rws));
  trace::Json rebuilt = trace::Json::array();
  rebuilt.push(std::move(entry));
  rep->set("programs", std::move(rebuilt));
  std::string err;
  EXPECT_FALSE(trace::validate_bench_report(doc, &err));
}

}  // namespace
}  // namespace armbar::opt
