// Ring-buffer tracer mechanics: wraparound accounting, snapshot order,
// enable/disable, and the metrics feed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/trace.hpp"

namespace armbar::trace {
namespace {

Event instant(Cycle at, std::uint64_t tag) {
  Event e;
  e.begin = e.end = at;
  e.a = tag;
  return e;
}

TEST(Tracer, EmptyOnConstruction) {
  Tracer t(8);
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, FillsWithoutDropsUpToCapacity) {
  Tracer t(16);
  for (std::uint64_t i = 0; i < 16; ++i) t.emit(instant(i, i));
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.emitted(), 16u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, WraparoundKeepsNewestAndCountsDropped) {
  constexpr std::size_t kCap = 16;
  Tracer t(kCap);
  for (std::uint64_t i = 0; i < 3 * kCap; ++i) t.emit(instant(i, i));
  EXPECT_EQ(t.size(), kCap);
  EXPECT_EQ(t.emitted(), 3 * kCap);
  EXPECT_EQ(t.dropped(), 2 * kCap);

  // The survivors are the newest kCap events, oldest first.
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i)
    EXPECT_EQ(snap[i].a, 2 * kCap + i) << "slot " << i;
}

TEST(Tracer, WraparoundAtNonBoundaryOffset) {
  Tracer t(8);
  for (std::uint64_t i = 0; i < 13; ++i) t.emit(instant(i, i));
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 5u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().a, 5u);
  EXPECT_EQ(snap.back().a, 12u);
}

TEST(Tracer, DisabledTracerEmitsNothing) {
  MetricsRegistry reg;
  Tracer t(8);
  t.set_metrics(&reg);
  t.set_enabled(false);

  t.emit(instant(1, 1));
  t.instr_issue(0, 0, 0, 1);
  t.stall(0, 0, 1, 0, 10);
  t.sb_enqueue(0, 1, 0x40, 2);
  t.sb_drain_retire(0, 1, 2, 9);
  t.barrier_issue(0, 3, 7, 4);
  t.barrier_txn(0, 7, 4, 9);
  t.barrier_complete(0, 3, 7, 4, 9);
  t.coh_transfer(0, 0x40, CohKind::kGetMRemote, 1, 5);

  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(reg.empty()) << "a disabled tracer must not feed metrics";

  // Re-enabling resumes recording.
  t.set_enabled(true);
  t.emit(instant(2, 2));
  EXPECT_EQ(t.emitted(), 1u);
}

TEST(Tracer, ClearResetsRingButKeepsConfiguration) {
  Tracer t(4);
  for (std::uint64_t i = 0; i < 9; ++i) t.emit(instant(i, i));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  t.emit(instant(1, 42));
  EXPECT_EQ(t.snapshot().at(0).a, 42u);
}

TEST(Tracer, StallCauseNamesFallBackToCode) {
  Tracer t(4);
  EXPECT_EQ(t.stall_cause_name(3), "3");
  t.set_stall_cause_names({"none", "operand", "barrier"});
  EXPECT_EQ(t.stall_cause_name(2), "barrier");
  EXPECT_EQ(t.stall_cause_name(9), "9");
}

TEST(Tracer, HooksFeedMetrics) {
  MetricsRegistry reg;
  Tracer t(4);  // tiny ring: metrics must not depend on ring survival
  t.set_metrics(&reg);
  t.set_stall_cause_names({"none", "operand", "barrier"});

  for (int i = 0; i < 10; ++i) {
    t.instr_issue(1, 0, 0, i);
    t.barrier_complete(1, 4, 7, i, i + 100);
    t.stall(1, 4, 2, i, i + 3);
    t.sb_drain_retire(1, i, 0, 32);
  }

  EXPECT_EQ(reg.counter(metric::kInstrs), 10u);
  EXPECT_EQ(reg.counter("stall_cycles.barrier"), 30u);
  const Histogram bc = reg.histogram(metric::kBarrierComplete);
  EXPECT_EQ(bc.count(), 10u);
  EXPECT_EQ(bc.min(), 100u);
  const Histogram sb = reg.histogram(metric::kSbResidency);
  EXPECT_EQ(sb.count(), 10u);
  EXPECT_EQ(sb.sum(), 320u);
}

TEST(Tracer, ZeroLengthStallIsNotRecorded) {
  Tracer t(4);
  t.stall(0, 0, 1, 5, 5);
  EXPECT_EQ(t.emitted(), 0u);
}

/// Every counter (total and per core) and histogram count in the registry.
std::string dump(const MetricsRegistry& reg) {
  std::ostringstream os;
  for (const std::string& name : reg.counter_names()) {
    os << name << "=" << reg.counter(name) << "[";
    for (CoreId c = 0; c < 4; ++c) os << reg.counter(name, c) << ",";
    os << "] ";
  }
  for (const std::string& name : reg.histogram_names())
    os << name << "#" << reg.histogram(name).count() << " ";
  return os.str();
}

// A run of m nops issued in one call must leave the tracer exactly as m
// single instr_issue calls would: the same metrics, emitted(), dropped()
// and ring contents, for m below, at and above the ring's capacity, and
// with the ring's head at an arbitrary offset.
TEST(Tracer, IssueRunMatchesSingleIssues) {
  constexpr std::size_t kCap = 16;
  for (const std::uint64_t m : {std::uint64_t{1}, std::uint64_t{5},
                                std::uint64_t{kCap}, std::uint64_t{kCap + 3},
                                std::uint64_t{3 * kCap + 7}}) {
    for (const std::uint64_t prefix : {std::uint64_t{0}, std::uint64_t{11}}) {
      MetricsRegistry reg_run, reg_one;
      Tracer run(kCap), one(kCap);
      run.set_metrics(&reg_run);
      one.set_metrics(&reg_one);
      for (std::uint64_t i = 0; i < prefix; ++i) {
        run.instr_issue(1, 100, 7, i);
        one.instr_issue(1, 100, 7, i);
      }
      run.instr_issue_run(2, 40, 0, 500, m);
      for (std::uint64_t i = 0; i < m; ++i)
        one.instr_issue(2, static_cast<std::uint32_t>(40 + i), 0, 500 + i);
      run.sb_enqueue(2, 9, 0x80, 600);  // the next emit lands after the run
      one.sb_enqueue(2, 9, 0x80, 600);

      const std::string at = "m=" + std::to_string(m) +
                             " prefix=" + std::to_string(prefix);
      EXPECT_EQ(dump(reg_run), dump(reg_one)) << at;
      EXPECT_EQ(run.emitted(), one.emitted()) << at;
      EXPECT_EQ(run.dropped(), one.dropped()) << at;
      const auto a = run.snapshot();
      const auto b = one.snapshot();
      ASSERT_EQ(a.size(), b.size()) << at;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin) << at << " slot " << i;
        EXPECT_EQ(a[i].end, b[i].end) << at << " slot " << i;
        EXPECT_EQ(a[i].a, b[i].a) << at << " slot " << i;
        EXPECT_EQ(a[i].b, b[i].b) << at << " slot " << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << at << " slot " << i;
        EXPECT_EQ(a[i].core, b[i].core) << at << " slot " << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << at << " slot " << i;
        EXPECT_EQ(a[i].detail, b[i].detail) << at << " slot " << i;
      }
    }
  }
}

TEST(Tracer, IssueRunOnDisabledTracerEmitsNothing) {
  MetricsRegistry reg;
  Tracer t(8);
  t.set_metrics(&reg);
  t.set_enabled(false);
  t.instr_issue_run(0, 0, 0, 1, 20);
  EXPECT_EQ(t.emitted(), 0u);
  EXPECT_TRUE(reg.empty());
}

}  // namespace
}  // namespace armbar::trace
