// The benchmark's own tests: each workload in a reduced, seconds-long form
// through the same output checks the full runs use, the seed-351 and
// planted ARMBAR_CHECK failures counted as failed operations, and the span
// arithmetic behind the per-layer self times.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_ROOT
#error "PERFBENCH_ROOT must be defined by the build"
#endif

namespace perfbench {
namespace {

Params reduced(double seconds = 1.0) {
  Params p;
  p.seconds = seconds;
  p.root = PERFBENCH_ROOT;
  return p;
}

bool passed(const RunOutput& out, const std::string& claim_prefix) {
  for (const auto& [claim, ok] : out.checks)
    if (claim.rfind(claim_prefix, 0) == 0) return ok;
  ADD_FAILURE() << "no check starting with '" << claim_prefix << "'";
  return false;
}

std::string all_failures(const RunOutput& out) {
  std::string s;
  for (const std::string& f : out.failures) s += f + "\n";
  for (const auto& [claim, ok] : out.checks)
    if (!ok) s += "check failed: " + claim + "\n";
  return s;
}

void expect_end_to_end(const RunOutput& out) {
  for (const char* name : {"setup_s", "wall_s", "ops_per_s"}) {
    const Metric* m = out.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->value, 0.0) << name;
  }
}

TEST(Figures, ReducedFormMatchesThePinnedDigests) {
  Params p = reduced();
  p.figures_filter = "fig6b_pilot,fig8c_hash,table2_platforms";
  p.figures_expected = 3;
  const RunOutput out = run_figures(p);
  EXPECT_TRUE(out.correct) << all_failures(out);
  EXPECT_EQ(out.attempted, 3u);
  EXPECT_EQ(out.failed, 0u) << all_failures(out);
  expect_end_to_end(out);
}

TEST(Figures, DigestDriftIsAFailedOperation) {
  // A checkout whose pin disagrees with the simulator for one experiment.
  const std::filesystem::path root = "figures-drift-root";
  std::filesystem::create_directories(root / "bench" / "baselines");
  std::ofstream(root / "bench" / "baselines" / "POINTS_DIGESTS.json")
      << R"({"digests": {"fig8c_hash/points_digest": "0123456789abcdef",
                        "table2_platforms/points_digest": "0000000000000000"}})";
  Params p = reduced();
  p.root = root.string();
  p.figures_filter = "fig8c_hash,table2_platforms";
  p.figures_expected = 2;
  const RunOutput out = run_figures(p);
  std::filesystem::remove_all(root);
  EXPECT_FALSE(out.correct);
  EXPECT_EQ(out.attempted, 2u);
  ASSERT_EQ(out.failed, 1u) << all_failures(out);
  EXPECT_NE(out.failures[0].find("fig8c_hash: points digest"), std::string::npos)
      << out.failures[0];
}

TEST(Opt, ReducedCorpusPassesEveryCheck) {
  Params p = reduced();
  p.opt_reduced = true;
  p.traced = true;
  const RunOutput out = run_opt(p);
  EXPECT_TRUE(out.correct) << all_failures(out);
  EXPECT_EQ(out.attempted, 6u);  // 4 shapes + ticket/strong + fuzz-1
  EXPECT_EQ(out.failed, 0u);
  EXPECT_TRUE(passed(out, "4/4 Table-1 decision logs"));
  EXPECT_TRUE(passed(out, "Table-3 parity holds 1 of 1"));
  expect_end_to_end(out);
  ASSERT_NE(out.find("opt.oracle_calls"), nullptr);
  EXPECT_GT(out.find("opt.oracle_calls")->value, 0.0);
  ASSERT_NE(out.find("sim.runs"), nullptr);
  EXPECT_GT(out.find("sim.runs")->value, 0.0);  // the pricing runs
}

TEST(Fuzz, EveryBlockHolds200SeedsIncludingTheKnownDeadlock) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::uint64_t first = 0, count = 0;
    fuzz_block(seed, &first, &count);
    EXPECT_GE(count, 200u);
    EXPECT_LE(first, 351u);
    EXPECT_GT(first + count, 351u);
    // Seeds 136 (46 s alone) and 417 (12 s) stay outside every block.
    EXPECT_GT(first, 136u);
    EXPECT_LE(first + count, 417u);
  }
}

TEST(Fuzz, KnownDeadlockIsExactlyOneCountedFailure) {
  Params p = reduced();
  p.fuzz_first = 349;
  p.fuzz_count = 5;
  p.traced = true;
  const RunOutput out = run_fuzz(p);
  EXPECT_TRUE(out.correct) << all_failures(out);
  EXPECT_EQ(out.attempted, 5u);
  ASSERT_EQ(out.failed, 1u) << all_failures(out);
  EXPECT_NE(out.failures[0].find("seed 351"), std::string::npos) << out.failures[0];
  EXPECT_NE(out.failures[0].find("no core schedulable"), std::string::npos);
  ASSERT_NE(out.find("fuzz.failed_seeds"), nullptr);
  EXPECT_EQ(out.find("fuzz.failed_seeds")->value, 1.0);
  EXPECT_GT(out.find("fuzz.sim_runs")->value, 0.0);
  expect_end_to_end(out);
}

TEST(Fuzz, PlantedCheckFailureIsCountedAndTheRunCompletes) {
  Params p = reduced();
  p.fuzz_first = 201;
  p.fuzz_count = 6;
  p.fuzz_plant_seed = 203;
  const RunOutput out = run_fuzz(p);
  EXPECT_EQ(out.attempted, 6u);
  ASSERT_EQ(out.failed, 1u) << all_failures(out);
  EXPECT_NE(out.failures[0].find("seed 203"), std::string::npos) << out.failures[0];
  EXPECT_NE(out.failures[0].find("planted check failure"), std::string::npos);
  EXPECT_FALSE(out.correct);  // not the known seed-351 deadlock
  EXPECT_FALSE(passed(out, "every failed seed is the known"));
  EXPECT_TRUE(passed(out, "0 DiffResult digests differ"));  // the other 5
}

TEST(Shm, ReducedPhasesDeliverEveryRecordExactlyOnce) {
  Params p = reduced(1.0);
  p.shm_closed_records = 20000;
  p.shm_open_records = 5000;
  const RunOutput out = run_shm(p);
  EXPECT_TRUE(out.correct) << all_failures(out);
  EXPECT_EQ(out.failed, 0u) << all_failures(out);
  EXPECT_GT(out.attempted, 0u);
  EXPECT_EQ(out.attempted % (3 * 25000), 0u);  // whole passes only
  EXPECT_TRUE(passed(out, "barriers per record"));
  EXPECT_TRUE(passed(out, "no segment left"));
  expect_end_to_end(out);
  for (const char* k : {"q", "rb", "rbp"})
    EXPECT_NE(out.find(std::string("shm.") + k + ".lat_us_p99"), nullptr) << k;
}

TEST(Shm, TracedPassReportsExactBarrierCounts) {
  Params p = reduced(1.0);
  p.shm_closed_records = 20000;
  p.shm_open_records = 5000;
  p.traced = true;
  const RunOutput out = run_shm(p);
  EXPECT_TRUE(out.correct) << all_failures(out);
  ASSERT_NE(out.find("shm.rbp.barriers_per_rec"), nullptr);
  EXPECT_EQ(out.find("shm.rbp.barriers_per_rec")->value, 1.0);
  EXPECT_EQ(out.find("shm.rb.barriers_per_rec")->value, 4.0);
  EXPECT_EQ(out.find("shm.rb.full_barriers_per_rec")->value, 0.0);
  EXPECT_GT(out.find("shm.q.full_barriers_per_rec")->value, 0.0);
  EXPECT_GT(out.find("shm.q.produce_ns_p50")->value, 0.0);
}

TEST(Spans, SelfTimeIsDurationMinusTheUnionOfChildren) {
  const auto t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  SpanLog log(t0);
  const int parent = log.add("parent", at(0), at(100));
  log.add("child", at(10), at(40), parent);
  log.add("child", at(30), at(50), parent);  // overlaps the first child
  log.add("child", at(90), at(120), parent);  // clipped to the parent
  EXPECT_NEAR(log.self_s("parent"), 0.100 - 0.040 - 0.010, 1e-9);
  EXPECT_NEAR(log.self_s("child"), 0.030 + 0.020 + 0.030, 1e-9);
}

TEST(Stats, PercentileInterpolatesAndToleratesFailedOperations) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, inf}, 50), 3.0);
  EXPECT_EQ(percentile({1, inf, inf}, 99), inf);
  EXPECT_DOUBLE_EQ(percentile({1, 2, inf}, 50), 2.0);
}

}  // namespace
}  // namespace perfbench
