// Slow-tier checker bit-identity pins (see bitident_pins.hpp): fuzz seed 3,
// the costliest complete enumeration in the opt corpus (2^20 execution
// combos), and seed 361, which exhausts the default 4M-candidate budget —
// its truncated outcome set pins the exact node order of the search.
#include <gtest/gtest.h>

#include "bitident_pins.hpp"
#include "fuzz/gen.hpp"

namespace armbar::model_pins {
namespace {

TEST(CheckerBitIdentitySlow, SeedThreeComplete) {
  expect_pinned({"seed3", 0x2f7c34ce75d16224ull, 2717487, 9244, 1048576, true},
                fuzz::generate(3, {}));
}

TEST(CheckerBitIdentitySlow, SeedThreeSixtyOneBudgetCapped) {
  expect_pinned(
      {"seed361", 0x3adf7040b274ac08ull, 4000001, 889621, 146955, false},
      fuzz::generate(361, {}));
}

}  // namespace
}  // namespace armbar::model_pins
