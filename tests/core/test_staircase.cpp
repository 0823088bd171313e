// Edge cases of the exact search's per-node staircase: the branchless
// probe must answer exactly like the upper_bound-and-step-back probe it
// replaced, and the single-probe insert exactly like a covers() test
// followed by a lower_bound insert, at the tolerance edges included.
#include "sunchase/core/staircase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>

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

/// The two-probe insert the single-probe one replaced: covers(), then
/// a lower_bound for the sorted position and the run it dominates.
bool add_reference(Staircase& stairs, const Criteria& c) {
  if (covers(stairs, c)) return false;
  const Step step{c.shaded_time.value(), c.energy_out.value()};
  const auto first = std::lower_bound(
      stairs.begin(), stairs.end(), step.shade,
      [](const Step& s, double shade) { return s.shade < shade; });
  auto last = first;
  while (last != stairs.end() && last->energy >= step.energy) ++last;
  if (first == last) {
    stairs.insert(first, step);
  } else {
    *first = step;
    stairs.erase(first + 1, last);
  }
  return true;
}

bool same_steps(const Staircase& a, const Staircase& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Step& x, const Step& y) {
                      return x.shade == y.shade && x.energy == y.energy;
                    });
}

/// Inserts `c` into a copy of `stairs` both ways; true when the two
/// agree on the answer and on the resulting steps.
::testing::AssertionResult inserts_alike(const Staircase& stairs,
                                         const Criteria& c) {
  Staircase fast = stairs;
  Staircase reference = stairs;
  const bool added = add_if_uncovered(fast, c);
  if (added != add_reference(reference, c))
    return ::testing::AssertionFailure()
           << "answers differ (single probe says " << added << ")";
  if (!same_steps(fast, reference))
    return ::testing::AssertionFailure() << "resulting steps differ";
  return ::testing::AssertionSuccess();
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
  // Dominates (20, 20) exactly.
  ASSERT_TRUE(add_if_uncovered(stairs, cost(15.0, 15.0)));
  ASSERT_EQ(stairs.size(), 3u);
  EXPECT_EQ(stairs[1].shade, 15.0);
  EXPECT_EQ(stairs[1].energy, 15.0);
  ASSERT_TRUE(add_if_uncovered(stairs, cost(5.0, 5.0)));  // dominates all
  ASSERT_EQ(stairs.size(), 1u);
  EXPECT_TRUE(covers(stairs, cost(6.0, 5.0)));
  // Covered: refused, the staircase unchanged.
  EXPECT_FALSE(add_if_uncovered(stairs, cost(6.0, 5.0)));
  ASSERT_EQ(stairs.size(), 1u);
}

TEST(Staircase, SingleProbeInsertAgreesAroundTheFrontAndBackSteps) {
  // The O(1) paths: costs at and around the front step (least shade)
  // and the back step (least energy), on staircases of 1 to 4 steps.
  const double e = kCriteriaEpsilon;
  for (int size = 1; size <= 4; ++size) {
    Staircase stairs;
    for (int i = 0; i < size; ++i)
      stairs.push_back(Step{10.0 * (i + 1), 100.0 - 10.0 * i});
    for (const Step& end : {stairs.front(), stairs.back()}) {
      for (const double ds : {-1.0, -2 * e, -e, -e / 2, 0.0, e / 2, e, 2 * e,
                              1.0}) {
        for (const double de : {-1.0, -2 * e, -e, -e / 2, 0.0, e / 2, e,
                                1.0}) {
          const Criteria c = cost(end.shade + ds, end.energy + de);
          EXPECT_TRUE(inserts_alike(stairs, c))
              << "size " << size << " shade " << c.shaded_time.value()
              << " energy " << c.energy_out.value();
        }
      }
    }
  }
}

TEST(Staircase, SingleProbeInsertAgreesOnRandomSequences) {
  // Random insert sequences on a coarse grid (many exact ties), with
  // some coordinates nudged by fractions of eps: both inserts must
  // accept the same costs and build the same staircase step by step.
  std::mt19937_64 rng(20240611);
  std::uniform_int_distribution<int> coarse(0, 40);
  std::uniform_int_distribution<int> nudge(-4, 4);
  for (int sequence = 0; sequence < 2000; ++sequence) {
    Staircase fast;
    Staircase reference;
    for (int i = 0; i < 60; ++i) {
      const Criteria c =
          cost(coarse(rng) + nudge(rng) * kCriteriaEpsilon / 3,
               coarse(rng) + nudge(rng) * kCriteriaEpsilon / 3);
      const bool added = add_if_uncovered(fast, c);
      ASSERT_EQ(added, add_reference(reference, c))
          << "sequence " << sequence << " insert " << i;
      ASSERT_TRUE(same_steps(fast, reference))
          << "sequence " << sequence << " insert " << i;
    }
  }
}

}  // namespace
}  // namespace sunchase::core::detail
