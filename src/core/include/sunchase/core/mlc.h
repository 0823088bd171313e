// The multi-label correcting algorithm (paper Algorithm 1): computes
// the full Pareto set of routes under the three criteria. Labels carry
// one cost per criterion; a monotone radix queue over travel time
// (detail::MonotoneQueue) pops the lexicographic minimum, ties within
// kCriteriaEpsilon of travel time broken by shade, then energy. An
// expansion never prices the edges back to its parent label's node:
// such a label costs at least the parent label, which is already
// recorded at that node. The search checks dominance lazily: each node
// keeps a 2-D (shaded time, energy) staircase of its expanded labels,
// and because labels pop in lexicographic order over edges of positive
// travel time, every label that can dominate a popped one has already
// been expanded at its node (dimensionality reduction, as in NAMOA*dr).
//
// Ties: costs equal within kCriteriaEpsilon in every criterion are one
// Pareto point. Equal-cost labels pop in creation order, so of two
// equivalent routes the one whose last label was created first — the
// one reached through the earlier out-edge where they branch — is kept.
#pragma once

#include <cstddef>
#include <vector>

#include "sunchase/core/criteria.h"
#include "sunchase/core/edge_cost.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/roadnet/path.h"

namespace sunchase::core {

struct MlcOptions {
  /// Time budget as a multiple of the shortest travel time — the
  /// paper's "acceptable arrival time" constraint. With a budget, a
  /// reverse Dijkstra from the destination (static lower-bound edge
  /// weights, no early exit) runs once per query, and a label whose
  /// travel time plus its node's time-to-destination lower bound
  /// exceeds factor * T_shortest is never inserted. The bound is
  /// admissible, so the Pareto set is exactly the unbounded one's
  /// routes within the budget; only the explored frontier shrinks. Set
  /// to 0 to disable (the full, unconstrained Pareto set; can be large).
  double max_time_factor = 1.5;
  /// Hard safety cap on created labels; RoutingError beyond it.
  std::size_t max_labels = 5'000'000;
  /// Every edge is priced at the clock the label enters it (departure
  /// plus accumulated travel time), so a route crossing a 15-minute
  /// boundary sees the shading and panel state change mid-route. How
  /// that clock is turned into an edge price: Exact evaluates the solar
  /// map per expansion; SlotQuantized rounds the clock down to the
  /// 15-minute slot start and reads the shared SlotCostCache.
  /// Bit-identical on a slot-constant world; see PricingMode.
  PricingMode pricing = PricingMode::Exact;
  /// Which of the world's vehicles the energy-consumption criterion is
  /// priced for (an index into World's vehicle list).
  std::size_t vehicle = 0;
};

/// One non-dominated route with its criteria vector.
struct ParetoRoute {
  roadnet::Path path;
  Criteria cost;
};

/// Search instrumentation (scalability benches report these).
struct MlcStats {
  /// Labels queued. New labels are filtered against expanded ones only,
  /// so some are queued that a later pop at their node discards.
  std::size_t labels_created = 0;
  /// Labels rejected by a staircase, when created or when popped. Edges
  /// back to the parent's node are never priced and not counted.
  std::size_t labels_dominated = 0;
  /// Dominance work, the search's cost driver: staircase probes, one
  /// per candidate label that made the time budget and one per popped
  /// label. Edges back to the parent's node are skipped before pricing
  /// and cost no check.
  std::size_t dominance_checks = 0;
  std::size_t queue_pops = 0;
  std::size_t pareto_size = 0;
  /// Expansions rejected because travel time plus the node's
  /// time-to-destination lower bound exceeded the time budget (0 when
  /// no budget is set). Edges back to the parent's node are skipped
  /// first and not counted.
  std::size_t labels_pruned_bound = 0;
  Seconds shortest_travel_time{0.0};
  /// Wall clock of this search (the query log's mlc phase duration).
  double search_seconds = 0.0;
  /// Wall clock of the reverse-Dijkstra lower-bound build (inside
  /// search_seconds; 0 when no budget is set).
  double lower_bound_seconds = 0.0;
};

struct MlcResult {
  std::vector<ParetoRoute> routes;  ///< full Pareto set at the target
  MlcStats stats;
};

/// The solver. Pins one immutable world snapshot for its lifetime —
/// construction is cheap (under SlotQuantized pricing it resolves the
/// world-owned, shared SlotCostCache; it never builds one), so a
/// per-query solver over a freshly loaded snapshot is the idiomatic
/// hot-swap pattern. Throws InvalidArgument for a null world or an
/// unknown vehicle index.
class MultiLabelCorrecting {
 public:
  explicit MultiLabelCorrecting(WorldPtr world,
                                MlcOptions options = MlcOptions{});

  /// Full Pareto set from `origin` to `destination` leaving at
  /// `departure`, sorted lexicographically. Throws RoutingError when
  /// the destination is unreachable or the label budget is exhausted;
  /// GraphError for unknown nodes.
  [[nodiscard]] MlcResult search(roadnet::NodeId origin,
                                 roadnet::NodeId destination,
                                 TimeOfDay departure) const;

  [[nodiscard]] const MlcOptions& options() const noexcept {
    return options_;
  }

  /// The snapshot every search() prices against.
  [[nodiscard]] const WorldPtr& world() const noexcept { return world_; }

  /// The world-owned slot cost cache backing SlotQuantized pricing;
  /// nullptr under Exact. Shared with every other solver, batch worker
  /// and explainer on the same (world version, vehicle).
  [[nodiscard]] const SlotCostCache* cache() const noexcept {
    return cache_;
  }

 private:
  WorldPtr world_;
  MlcOptions options_;
  const SlotCostCache* cache_ = nullptr;  ///< only when SlotQuantized
};

}  // namespace sunchase::core
