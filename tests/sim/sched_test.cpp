// Unit tests for the attention slots the run loop schedules from (ISSUE 7).
#include <gtest/gtest.h>

#include "sim/sched.hpp"

namespace armbar::sim {
namespace {

TEST(AttentionQueue, EmptyIsNever) {
  AttentionQueue q(4);
  EXPECT_EQ(q.min(), kNeverCycle);
  for (std::uint32_t c = 0; c < 4; ++c) EXPECT_EQ(q.at(c), kNeverCycle);
}

TEST(AttentionQueue, MinTracksSlotRewrites) {
  AttentionQueue q(3);
  q.set(0, 100);
  q.set(1, 50);
  q.set(2, 75);
  EXPECT_EQ(q.min(), 50u);
  // Postponing the minimum moves it to the next-earliest slot.
  q.set(1, 200);
  EXPECT_EQ(q.min(), 75u);
  // Pulling a core earlier (WFE wake via invalidation) shows up immediately.
  q.set(0, 10);
  EXPECT_EQ(q.min(), 10u);
  EXPECT_EQ(q.at(0), 10u);
}

TEST(AttentionQueue, IdleCoresLeaveTheQueue) {
  AttentionQueue q(2);
  q.set(0, 5);
  q.set(1, 9);
  EXPECT_EQ(q.min(), 5u);
  q.set(0, kNeverCycle);  // core 0 went idle
  EXPECT_EQ(q.min(), 9u);
  q.set(1, kNeverCycle);
  EXPECT_EQ(q.min(), kNeverCycle);
}

TEST(AttentionQueue, SurvivesManyStaleEntries) {
  // Repeated rewrites of the same slots must never surface a stale
  // minimum.
  AttentionQueue q(4);
  for (Cycle i = 1; i <= 10'000; ++i) {
    q.set(i % 4, i);
    // The other slots keep their older (smaller) values, except slot i%4.
    Cycle expect = kNeverCycle;
    for (std::uint32_t c = 0; c < 4; ++c)
      if (q.at(c) != kNeverCycle) expect = std::min(expect, q.at(c));
    ASSERT_EQ(q.min(), expect) << "after set #" << i;
  }
}

}  // namespace
}  // namespace armbar::sim
