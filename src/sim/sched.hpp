// Attention slots for the machine run loop (ISSUE 7 fast path).
//
// The run loop needs two things per iteration: the earliest cycle any live
// core wants attention (to jump simulated time forward), and the set of
// cores due at that cycle (stepped in core-id order — see machine.cpp for
// why that order is load-bearing).
//
// AttentionQueue keeps a dense per-core cycle array, the authoritative
// slots (one cache line for typical core counts). The run loop's step sweep
// reads every live slot anyway, so it folds the minimum for the next
// iteration into that same pass, and min() — a scan — runs only when a
// slot the sweep has passed was lowered behind it (a coherence
// invalidation waking a WFE parker). A priority queue beside the slots
// would cost a push per step and a pop per stale entry to save a scan the
// sweep already makes; with 64 cores due every cycle that cost as much as
// the steps themselves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace armbar::sim {

class AttentionQueue {
 public:
  explicit AttentionQueue(std::uint32_t num_cores)
      : slots_(num_cores, kNeverCycle) {}

  /// Authoritative next-attention cycle for `core` (kNeverCycle = idle).
  void set(std::uint32_t core, Cycle at) { slots_[core] = at; }

  Cycle at(std::uint32_t core) const { return slots_[core]; }

  /// The dense slot array itself, for the run loop's step sweep: one
  /// contiguous read per core instead of chasing each Core pointer for
  /// idle()/next_attention(). Entries mutate under the caller's feet as
  /// steps reschedule cores — that is the point (the sweep must observe
  /// same-cycle wakes written by earlier cores' steps).
  const std::vector<Cycle>& slots() const { return slots_; }

  /// Earliest attention cycle over all cores (kNeverCycle when none pending).
  Cycle min() const { return *std::min_element(slots_.begin(), slots_.end()); }

 private:
  std::vector<Cycle> slots_;
};

}  // namespace armbar::sim
