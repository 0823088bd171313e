// The exact search's per-node dominance record (see mlc.h): a 2-D
// Pareto staircase of the (shaded time, energy) of the labels expanded
// at a node. Internal to MultiLabelCorrecting; declared here so its
// edge cases can be tested directly.
#pragma once

#include <algorithm>
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

/// True when some step weakly dominates (shade, energy) within
/// kCriteriaEpsilon — the 2-D form of `equivalent || dominates`. The
/// last step with shade <= cost.shade + eps has the least energy of
/// all such steps, so one binary search decides. The search halves a
/// window that always holds that step, moving its base by a select
/// rather than a branch: the probe's outcome is data-dependent noise
/// to a branch predictor, and this is the search's innermost loop.
[[nodiscard]] inline bool covers(const Staircase& stairs,
                                 const Criteria& cost) noexcept {
  if (stairs.empty()) return false;
  const double shade = cost.shaded_time.value() + kCriteriaEpsilon;
  const Step* base = stairs.data();
  for (std::size_t n = stairs.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = base[half].shade <= shade ? base + half : base;
    n -= half;
  }
  return base->shade <= shade &&
         base->energy <= cost.energy_out.value() + kCriteriaEpsilon;
}

/// Adds an uncovered cost and drops the steps it dominates exactly
/// (shade and energy both >=): a run starting at its sorted position.
/// Exact removal keeps the fuzzy tolerance from compounding.
inline void add_step(Staircase& stairs, const Criteria& cost) {
  const Step step{cost.shaded_time.value(), cost.energy_out.value()};
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
}

}  // namespace sunchase::core::detail
