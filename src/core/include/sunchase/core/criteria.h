// The k = 3 criteria vector of the multi-criteria routing model
// (Sec. III-B): travel time, solar input, and EV energy consumption.
// All three are minimized — solar input enters as *shaded travel time*,
// following the paper: "We compute the csi(v) by calculating the EV
// travel time on shaded road segments. Since less shadows means more
// solar input."
#pragma once

#include "sunchase/common/units.h"

namespace sunchase::core {

/// Additive route cost vector (c_tt, c_si, c_ec).
struct Criteria {
  Seconds travel_time{0.0};
  Seconds shaded_time{0.0};
  WattHours energy_out{0.0};

  Criteria& operator+=(const Criteria& o) noexcept {
    travel_time += o.travel_time;
    shaded_time += o.shaded_time;
    energy_out += o.energy_out;
    return *this;
  }
  friend Criteria operator+(Criteria a, const Criteria& b) noexcept {
    return a += b;
  }
  friend bool operator==(const Criteria&, const Criteria&) noexcept = default;
};

/// Comparison tolerance: differences below this are treated as ties so
/// floating-point dust cannot inflate the Pareto set.
inline constexpr double kCriteriaEpsilon = 1e-9;

namespace detail {
/// -1 / 0 / +1 comparison with the shared tolerance.
[[nodiscard]] inline int fuzzy_cmp(double a, double b) noexcept {
  if (a < b - kCriteriaEpsilon) return -1;
  if (a > b + kCriteriaEpsilon) return +1;
  return 0;
}
}  // namespace detail

/// Lexicographic order (travel time, then shaded time, then energy):
/// the priority-queue order of the multi-label correcting algorithm
/// ("extract the minimum label (in lexicographic order)"). Three-way:
/// the sign of the first criterion that differs beyond tolerance, 0 when
/// the vectors are equivalent.
[[nodiscard]] inline int lex_compare(const Criteria& a,
                                     const Criteria& b) noexcept {
  using detail::fuzzy_cmp;
  if (const int c = fuzzy_cmp(a.travel_time.value(), b.travel_time.value()))
    return c;
  if (const int c = fuzzy_cmp(a.shaded_time.value(), b.shaded_time.value()))
    return c;
  return fuzzy_cmp(a.energy_out.value(), b.energy_out.value());
}

/// lex_compare(a, b) < 0.
[[nodiscard]] inline bool lex_less(const Criteria& a,
                                   const Criteria& b) noexcept {
  return lex_compare(a, b) < 0;
}

/// Pareto dominance: a dominates b iff a <= b in every criterion and
/// a < b in at least one (Sec. III-B), with epsilon tolerance.
[[nodiscard]] inline bool dominates(const Criteria& a,
                                    const Criteria& b) noexcept {
  using detail::fuzzy_cmp;
  const int c1 = fuzzy_cmp(a.travel_time.value(), b.travel_time.value());
  const int c2 = fuzzy_cmp(a.shaded_time.value(), b.shaded_time.value());
  const int c3 = fuzzy_cmp(a.energy_out.value(), b.energy_out.value());
  if (c1 > 0 || c2 > 0 || c3 > 0) return false;
  return c1 < 0 || c2 < 0 || c3 < 0;
}

/// True when the two vectors are equal within tolerance.
[[nodiscard]] inline bool equivalent(const Criteria& a,
                                     const Criteria& b) noexcept {
  return lex_compare(a, b) == 0;
}

}  // namespace sunchase::core
