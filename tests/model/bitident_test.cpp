// Tier-1 checker bit-identity pins: the 16 Table-1 shapes and fuzz
// generator seeds 1-64 (seed 3, whose enumeration dominates, is pinned in
// the slow tier). See bitident_pins.hpp for what a row asserts.
#include <gtest/gtest.h>

#include <string>

#include "bitident_pins.hpp"
#include "fuzz/gen.hpp"
#include "litmus/shapes.hpp"

namespace armbar::model_pins {
namespace {

const Pin kShapes[] = {
    {"MP", 0x7a6541d099283f79ull, 8, 4, 4, true},
    {"MP+dmb.st", 0x0018bf4abd1d50f3ull, 8, 3, 4, true},
    {"MP+dmb.full", 0x0018bf4abd1d50f3ull, 8, 3, 4, true},
    {"MP+dmb.ld", 0x7a6541d099283f79ull, 8, 4, 4, true},
    {"MP+dsb.full", 0x0018bf4abd1d50f3ull, 8, 3, 4, true},
    {"SB", 0x32c5d97c6735c313ull, 8, 4, 4, true},
    {"SB+dmb.st", 0x32c5d97c6735c313ull, 8, 4, 4, true},
    {"SB+dmb.full", 0xc56ff528bf42a782ull, 8, 3, 4, true},
    {"SB+rel-acq", 0xc56ff528bf42a782ull, 8, 3, 4, true},
    {"CoRR", 0x2043ea831e4a194bull, 32, 6, 9, true},
    {"LB", 0x32c5d97c6735c313ull, 8, 4, 4, true},
    {"LB+dmb.full", 0x519030157fb62a0aull, 7, 3, 4, true},
    {"S", 0x252e6e6075c5000bull, 6, 4, 2, true},
    {"S+dmb.st", 0x00aaf599c555b927ull, 6, 3, 2, true},
    {"2+2W", 0x9e03f65877d63a5bull, 6, 4, 1, true},
    {"2+2W+dmb.st", 0x030001eeaa110e28ull, 6, 3, 1, true},
};

const Pin kSeeds[] = {
    {"seed1", 0x382ddbdaebca5c3eull, 24, 6, 6, true},
    {"seed2", 0x853e49bde8e6517full, 144, 24, 32, true},
    {"seed4", 0xab51915d3699867full, 64, 16, 16, true},
    {"seed5", 0x5263282143cdd5ddull, 35496, 2520, 1944, true},
    {"seed6", 0xcd2e16b876487833ull, 122, 48, 8, true},
    {"seed7", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed8", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed9", 0x4ab9e6ddde626117ull, 832, 128, 64, true},
    {"seed10", 0x8695a3b0d96606a3ull, 20, 6, 4, true},
    {"seed11", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed12", 0xf89f9dcdf9a3f6daull, 4143, 405, 576, true},
    {"seed13", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed14", 0xab51915d3699867full, 64, 16, 16, true},
    {"seed15", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed16", 0x8c7712ba53fbc54eull, 15, 1, 4, true},
    {"seed17", 0x9c20c75cae69cdffull, 351648, 6480, 124416, true},
    {"seed18", 0xa04816bd06eee133ull, 8, 4, 4, true},
    {"seed19", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed20", 0x5fa43311436d1b49ull, 16, 6, 6, true},
    {"seed21", 0x9036a5234c05c60bull, 8, 4, 4, true},
    {"seed22", 0x53c6d705cdb8272full, 160, 24, 32, true},
    {"seed23", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed24", 0x4ef706573f08ef55ull, 51, 3, 64, true},
    {"seed25", 0x76ff3b75002f48efull, 2284, 264, 256, true},
    {"seed26", 0x5fa43311436d1b49ull, 16, 6, 6, true},
    {"seed27", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed28", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed29", 0x8e7d860e97f52466ull, 8, 3, 4, true},
    {"seed30", 0x35df20cd35cb3307ull, 20, 4, 6, true},
    {"seed31", 0x7c649874f003de16ull, 21975, 1125, 1500, true},
    {"seed32", 0x08e42d9f9679e723ull, 16, 4, 8, true},
    {"seed33", 0x8a9ea6bd59eb163full, 2712, 336, 1296, true},
    {"seed34", 0xb5dd2d18ad0f665full, 752, 16, 64, true},
    {"seed35", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed36", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed37", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed38", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed39", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed40", 0xf88441b05fd27bfbull, 8, 4, 4, true},
    {"seed41", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed42", 0x99089d0a77c6953bull, 24, 4, 8, true},
    {"seed43", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed44", 0xef23353b3ef6cbcbull, 8, 4, 4, true},
    {"seed45", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed46", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed47", 0x65a79d94383060e7ull, 144, 24, 32, true},
    {"seed48", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed49", 0xc56d8711ce6f40b4ull, 8, 3, 4, true},
    {"seed50", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed51", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed52", 0x2597ebd398ac6034ull, 315, 45, 27, true},
    {"seed53", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed54", 0xd40956ea0672d3bfull, 8, 4, 4, true},
    {"seed55", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed56", 0x01262cc172c967b4ull, 8, 3, 4, true},
    {"seed57", 0x93337991e0d5e473ull, 24, 5, 8, true},
    {"seed58", 0xef782a7d37d25f7bull, 8, 4, 4, true},
    {"seed59", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed60", 0xd0f036aad66527e3ull, 6936, 864, 192, true},
    {"seed61", 0x77caa62051047b99ull, 48, 3, 36, true},
    {"seed62", 0x0d239d2a778ac383ull, 8, 4, 4, true},
    {"seed63", 0x296f4b87f494374bull, 2741, 210, 400, true},
    {"seed64", 0x0d239d2a778ac383ull, 8, 4, 4, true},
};

TEST(CheckerBitIdentity, TableOneShapes) {
  ASSERT_EQ(litmus::table1_shapes().size(), std::size(kShapes));
  for (const Pin& pin : kShapes)
    expect_pinned(pin, litmus::table1_shape(pin.name).model_prog);
}

TEST(CheckerBitIdentity, FuzzSeedsOneToSixtyFour) {
  for (const Pin& pin : kSeeds) {
    const std::uint64_t seed = std::stoull(std::string(pin.name).substr(4));
    expect_pinned(pin, fuzz::generate(seed, {}));
  }
}

}  // namespace
}  // namespace armbar::model_pins
