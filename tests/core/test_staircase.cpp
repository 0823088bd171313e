// Edge cases of the exact search's per-node staircase probe: the
// branchless binary search must answer exactly like the
// upper_bound-and-step-back probe it replaced, at the tolerance edges
// included.
#include "sunchase/core/staircase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

namespace sunchase::core::detail {
namespace {

Criteria cost(double shade, double energy) {
  return Criteria{Seconds{1.0}, Seconds{shade}, WattHours{energy}};
}

/// The probe before it went branchless, as the reference.
bool covers_reference(const Staircase& stairs, const Criteria& c) {
  const double shade = c.shaded_time.value() + kCriteriaEpsilon;
  const auto above = std::upper_bound(
      stairs.begin(), stairs.end(), shade,
      [](double s, const Step& step) { return s < step.shade; });
  return above != stairs.begin() &&
         std::prev(above)->energy <= c.energy_out.value() + kCriteriaEpsilon;
}

Staircase three_steps() {
  // Shade ascending, energy descending.
  return Staircase{{10.0, 30.0}, {20.0, 20.0}, {30.0, 10.0}};
}

TEST(Staircase, EmptyCoversNothing) {
  const Staircase empty;
  EXPECT_FALSE(covers(empty, cost(0.0, 0.0)));
  EXPECT_FALSE(covers(empty, cost(1e9, 1e9)));
}

TEST(Staircase, QueryBelowTheFirstStepIsUncovered) {
  const Staircase stairs = three_steps();
  EXPECT_FALSE(covers(stairs, cost(9.0, 1e9)));
  EXPECT_FALSE(covers(stairs, cost(0.0, 0.0)));
}

TEST(Staircase, QueryAboveTheLastStepUsesTheLastStep) {
  const Staircase stairs = three_steps();
  EXPECT_TRUE(covers(stairs, cost(1e9, 10.0)));
  EXPECT_TRUE(covers(stairs, cost(31.0, 11.0)));
  EXPECT_FALSE(covers(stairs, cost(1e9, 9.0)));
}

TEST(Staircase, ShadeAtPlusOrMinusEpsilonOfAStep) {
  const Staircase stairs = three_steps();
  // At +eps the middle step (energy 20) is within tolerance and decides.
  EXPECT_TRUE(covers(stairs, cost(20.0 + kCriteriaEpsilon, 20.0)));
  EXPECT_FALSE(covers(stairs, cost(20.0 + kCriteriaEpsilon, 19.0)));
  // At -eps, shade + eps lands on the step's shade up to rounding;
  // whichever way it rounds, the probe must agree with the reference.
  for (const double energy : {19.0, 20.0, 25.0, 30.0}) {
    const Criteria c = cost(20.0 - kCriteriaEpsilon, energy);
    EXPECT_EQ(covers(stairs, c), covers_reference(stairs, c)) << energy;
  }
  // Clearly below the step: only the first step (energy 30) applies.
  EXPECT_FALSE(covers(stairs, cost(20.0 - 1e-6, 20.0)));
  EXPECT_TRUE(covers(stairs, cost(20.0 - 1e-6, 30.0)));
}

TEST(Staircase, EnergyWithinEpsilonOfAStepIsCovered) {
  const Staircase stairs = three_steps();
  EXPECT_TRUE(covers(stairs, cost(20.0, 20.0 - kCriteriaEpsilon / 2)));
  EXPECT_FALSE(covers(stairs, cost(20.0, 20.0 - 1e-6)));
}

TEST(Staircase, AgreesWithTheUpperBoundProbeOnEveryBoundary) {
  // Staircases of 1..9 steps, probed at and around every step's shade
  // and energy: the branchless search must match the reference at
  // every size (odd and even halving paths alike).
  for (int size = 1; size <= 9; ++size) {
    Staircase stairs;
    for (int i = 0; i < size; ++i)
      stairs.push_back(Step{10.0 * (i + 1), 100.0 - 10.0 * i});
    for (const Step& step : stairs) {
      for (const double ds : {-1.0, -kCriteriaEpsilon, 0.0, kCriteriaEpsilon,
                              0.5e-9, 1.0}) {
        for (const double de : {-1.0, -kCriteriaEpsilon, 0.0, 1.0}) {
          const Criteria c = cost(step.shade + ds, step.energy + de);
          EXPECT_EQ(covers(stairs, c), covers_reference(stairs, c))
              << "size " << size << " shade " << c.shaded_time.value()
              << " energy " << c.energy_out.value();
        }
      }
    }
  }
}

TEST(Staircase, AddStepKeepsTheStaircaseShape) {
  Staircase stairs = three_steps();
  add_step(stairs, cost(15.0, 15.0));  // dominates (20, 20) exactly
  ASSERT_EQ(stairs.size(), 3u);
  EXPECT_EQ(stairs[1].shade, 15.0);
  EXPECT_EQ(stairs[1].energy, 15.0);
  add_step(stairs, cost(5.0, 5.0));  // dominates everything
  ASSERT_EQ(stairs.size(), 1u);
  EXPECT_TRUE(covers(stairs, cost(6.0, 5.0)));
}

}  // namespace
}  // namespace sunchase::core::detail
