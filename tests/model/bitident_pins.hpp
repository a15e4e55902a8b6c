// Checker bit-identity pins: for a fixed program, the POR engine's full
// enumeration result — the rendered outcome set (fnv-1a 64 of
// model::to_string), the search-node count `candidates`, the leaf count
// `consistent`, the per-thread execution `combos` and `complete` — must not
// move under a pure performance change of src/model. `candidates` is the
// strict one: the por/naive equivalence sweep cannot see it, yet a
// budget-capped (incomplete) outcome set depends on exactly which nodes the
// search visits, in which order.
//
// The tables in bitident_test.cpp / bitident_slow_test.cpp were generated
// with default ModelOptions; a row may change only with a deliberate change
// to the model's semantics or search order, never for speed.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "model/model.hpp"

namespace armbar::model_pins {

struct Pin {
  const char* name;      ///< Table-1 shape name, or "seed<N>" (fuzz::generate)
  std::uint64_t fnv;     ///< fnv-1a 64 of model::to_string(OutcomeSet)
  std::uint64_t candidates;
  std::uint64_t consistent;
  std::uint64_t combos;
  bool complete;
};

inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline void expect_pinned(const Pin& pin, const model::ConcurrentProgram& p) {
  const model::OutcomeSet o = model::enumerate_outcomes(p);
  ASSERT_TRUE(o.ok()) << pin.name << ": " << o.error;
  EXPECT_EQ(fnv1a(model::to_string(o)), pin.fnv)
      << pin.name << ": " << model::to_string(o);
  EXPECT_EQ(o.candidates, pin.candidates) << pin.name;
  EXPECT_EQ(o.consistent, pin.consistent) << pin.name;
  EXPECT_EQ(o.combos, pin.combos) << pin.name;
  EXPECT_EQ(o.complete, pin.complete) << pin.name;
  EXPECT_LE(o.combos_skipped, o.combos) << pin.name;
}

}  // namespace armbar::model_pins
