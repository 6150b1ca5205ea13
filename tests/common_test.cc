// Unit tests for the common utilities: units, RNG.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"

namespace unimem {
namespace {

TEST(Units, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_up(1000, 8), 1000u);
}

TEST(Units, LinesOf) {
  EXPECT_EQ(lines_of(0), 0u);
  EXPECT_EQ(lines_of(1), 1u);
  EXPECT_EQ(lines_of(64), 1u);
  EXPECT_EQ(lines_of(65), 2u);
  EXPECT_EQ(lines_of(kMiB), kMiB / 64);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(mbps(1000), 1e9);
  EXPECT_DOUBLE_EQ(gbps(12.8), 12.8e9);
  EXPECT_DOUBLE_EQ(ns(80), 80e-9);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BelowBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

}  // namespace
}  // namespace unimem
