// The exact search's per-node dominance record (see mlc.h): a 2-D
// Pareto staircase of the (shaded time, energy) of the labels expanded
// at a node. Internal to MultiLabelCorrecting; declared here so its
// edge cases can be tested directly.
#pragma once

#include <cstddef>
#include <vector>

#include "sunchase/core/criteria.h"

namespace sunchase::core::detail {

/// One expanded label's (shaded time, energy) at a node.
struct Step {
  double shade;
  double energy;
};

/// Shade strictly ascending and energy strictly descending. Pop order
/// is lexicographic and every edge takes positive time, so each
/// expanded label is no slower than any label still to come at the
/// node; the 3-D dominance test reduces to these two.
using Staircase = std::vector<Step>;

/// The last step with shade <= `shade`, or the first step when none
/// is. Precondition: non-empty. The search halves a window that always
/// holds that step, moving its base by a select rather than a branch:
/// the probe's outcome is data-dependent noise to a branch predictor,
/// and this is the search's innermost loop.
[[nodiscard]] inline const Step* last_at_most(const Staircase& stairs,
                                              double shade) noexcept {
  const Step* base = stairs.data();
  for (std::size_t n = stairs.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = base[half].shade <= shade ? base + half : base;
    n -= half;
  }
  return base;
}

/// True when some step weakly dominates (shade, energy) within
/// kCriteriaEpsilon — the 2-D form of `equivalent || dominates`. The
/// last step with shade <= cost.shade + eps has the least energy of
/// all such steps, so one binary search decides.
[[nodiscard]] inline bool covers(const Staircase& stairs,
                                 const Criteria& cost) noexcept {
  if (stairs.empty()) return false;
  const double shade = cost.shaded_time.value() + kCriteriaEpsilon;
  const Step* base = last_at_most(stairs, shade);
  return base->shade <= shade &&
         base->energy <= cost.energy_out.value() + kCriteriaEpsilon;
}

/// Adds `cost` unless some step covers it; returns whether it was
/// added. An added cost drops the steps it dominates exactly (shade
/// and energy both >=): a run starting at its sorted position. Exact
/// removal keeps the fuzzy tolerance from compounding.
///
/// One probe serves the test and the insert. The back step (most
/// shade, least energy) settles a cost shadier than every step in
/// O(1): covered by it or appended after it. So does the front step
/// for a cost more than eps below it: uncovered, its run starts at the
/// front. Otherwise one binary search finds the covering candidate,
/// and the sorted position lies just past it, before the steps
/// (normally none) with shade in [cost.shade, cost.shade + eps].
[[nodiscard]] inline bool add_if_uncovered(Staircase& stairs,
                                           const Criteria& cost) {
  const Step step{cost.shaded_time.value(), cost.energy_out.value()};
  const double shade = step.shade + kCriteriaEpsilon;
  if (stairs.empty() || stairs.back().shade < step.shade) {
    if (!stairs.empty() &&
        stairs.back().energy <= step.energy + kCriteriaEpsilon)
      return false;
    stairs.push_back(step);
    return true;
  }
  std::size_t first = 0;
  if (stairs.front().shade <= shade) {
    const Step* base = last_at_most(stairs, shade);
    if (base->energy <= step.energy + kCriteriaEpsilon) return false;
    first = static_cast<std::size_t>(base - stairs.data()) + 1;
    while (first > 0 && stairs[first - 1].shade >= step.shade) --first;
  }
  std::size_t last = first;
  while (last < stairs.size() && stairs[last].energy >= step.energy) ++last;
  const auto at = stairs.begin() + static_cast<std::ptrdiff_t>(first);
  if (first == last) {
    stairs.insert(at, step);
  } else {
    *at = step;
    stairs.erase(at + 1, at + static_cast<std::ptrdiff_t>(last - first));
  }
  return true;
}

}  // namespace sunchase::core::detail
