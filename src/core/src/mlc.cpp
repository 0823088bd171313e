#include "sunchase/core/mlc.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/core/dijkstra.h"
#include "sunchase/core/monotone_queue.h"
#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/core/staircase.h"
#include "sunchase/core/world.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {

namespace {

/// Registry handles for the search counters, resolved once. Stats are
/// bulk-added per query so the inner loop pays no atomics.
struct MlcMetrics {
  obs::Counter& labels_created;
  obs::Counter& labels_dominated;
  obs::Counter& dominance_checks;
  obs::Counter& queue_pops;
  obs::Counter& queries;
  obs::Counter& label_cap_hits;
  obs::Counter& labels_pruned_bound;
  obs::Histogram& lower_bound_latency;
  obs::Histogram& latency;

  static const MlcMetrics& get() {
    static MlcMetrics metrics{
        obs::Registry::global().counter("mlc.labels_created"),
        obs::Registry::global().counter("mlc.labels_dominated"),
        obs::Registry::global().counter("mlc.dominance_checks"),
        obs::Registry::global().counter("mlc.queue_pops"),
        obs::Registry::global().counter("mlc.queries"),
        obs::Registry::global().counter("mlc.label_cap_hits"),
        obs::Registry::global().counter("mlc.labels_pruned_bound"),
        obs::Registry::global().histogram("mlc.lower_bound_seconds"),
        obs::Registry::global().histogram("mlc.query_latency_seconds")};
    return metrics;
  }
};

/// A search label: cost vector at `node`, reached via `via_edge` from
/// the label at index `parent` (-1 for the origin label).
struct Label {
  Criteria cost;
  roadnet::NodeId node = roadnet::kInvalidNode;
  roadnet::EdgeId via_edge = roadnet::kInvalidEdge;
  std::int32_t parent = -1;
};

/// Queue order among labels whose travel times tie within
/// kCriteriaEpsilon (the queue keys on travel time alone): label `a`
/// pops before label `b`. Shaded time, then energy, with lex_compare's
/// tolerance; costs that tie in both pop in label-creation order, which
/// is what makes "the earliest-created of equivalent labels survives"
/// (mlc.h) deterministic. Only the rare tie reads the arena.
struct PopsFirst {
  const Label* arena;

  bool operator()(std::uint32_t a, std::uint32_t b) const noexcept {
    const Criteria& x = arena[a].cost;
    const Criteria& y = arena[b].cost;
    int c = detail::fuzzy_cmp(x.shaded_time.value(), y.shaded_time.value());
    if (c == 0)
      c = detail::fuzzy_cmp(x.energy_out.value(), y.energy_out.value());
    return c != 0 ? c < 0 : a < b;
  }
};

/// Search buffers kept per thread between queries, so a search reuses
/// their capacity instead of allocating the arena, the queue, one
/// record per node and the lower bounds on every call. A node's record
/// is valid only when its stamp equals the current generation; a query
/// therefore touches just the nodes it reaches.
struct Workspace {
  struct Node {
    std::uint32_t stamp = 0;
    detail::Staircase stairs;
  };

  std::vector<Label> arena;
  detail::MonotoneQueue queue;
  std::vector<Node> nodes;
  std::uint32_t generation = 0;
  /// One expansion's out-edges, less those back to the parent's node.
  std::vector<roadnet::EdgeId> edges;
  /// Exact pricing of those edges (detail::price_edges).
  std::vector<MetersPerSecond> speeds;
  std::vector<Criteria> prices;
  detail::DijkstraState lower_bounds;

  void begin(std::size_t node_count) {
    arena.clear();
    arena.reserve(1024);
    queue.clear();
    if (nodes.size() < node_count) nodes.resize(node_count);
    if (++generation == 0) {  // wrapped: no stale stamp may match again
      for (Node& n : nodes) n.stamp = 0;
      generation = 1;
    }
  }

  Node& at(roadnet::NodeId v) {
    Node& n = nodes[v];
    if (n.stamp != generation) {
      n.stamp = generation;
      n.stairs.clear();
    }
    return n;
  }

  /// Bytes held by the flat buffers (per-node vectors not counted).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return arena.capacity() * sizeof(Label) + queue.capacity_bytes() +
           nodes.capacity() * sizeof(Node) +
           edges.capacity() * sizeof(roadnet::EdgeId) +
           speeds.capacity() * sizeof(MetersPerSecond) +
           prices.capacity() * sizeof(Criteria) +
           lower_bounds.capacity_bytes();
  }
};

/// The calling thread's workspace, reset for one search and trimmed
/// when the search ends, by return or by throw. A search never starts
/// another on its own thread, so one workspace per thread suffices.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(std::size_t node_count) : ws_(local()) {
    ws_.begin(node_count);
  }
  ~WorkspaceLease() {
    if (!detail::retain_workspace(ws_.capacity_bytes())) ws_ = Workspace{};
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  Workspace& operator*() const noexcept { return ws_; }

 private:
  static Workspace& local() {
    thread_local Workspace workspace;
    return workspace;
  }
  Workspace& ws_;
};

/// One query's inputs and buffers.
struct Search {
  const roadnet::RoadGraph& graph;
  const solar::SolarInputMap& map;
  const ev::ConsumptionModel& vehicle;
  const SlotCostCache* cache;
  const MlcOptions& options;
  TimeOfDay departure;
  /// The time budget in seconds, 0 for none. When set,
  /// ws.lower_bounds holds every node's time-to-destination bound.
  double time_bound;
  Workspace& ws;
  MlcStats& stats;
  /// Exact edge pricings, added to "solar.evaluate_calls" with the other
  /// counters once the search returns: no atomic in the inner loop.
  std::size_t pricings = 0;

  /// Creates a label and queues it; RoutingError past the label budget.
  void push(roadnet::NodeId v, const Criteria& cost, roadnet::EdgeId via,
            std::int32_t parent) {
    if (ws.arena.size() >= options.max_labels) {
      MlcMetrics::get().label_cap_hits.add();
      SUNCHASE_LOG(Info) << "mlc: label budget of " << options.max_labels
                         << " exhausted at node " << v << " ("
                         << stats.labels_dominated
                         << " labels dominated so far)";
      throw RoutingError("MultiLabelCorrecting::search: label budget of " +
                         std::to_string(options.max_labels) + " exhausted");
    }
    const auto idx = static_cast<std::uint32_t>(ws.arena.size());
    ws.arena.push_back(Label{cost, v, via, parent});
    ++stats.labels_created;
    ws.queue.push(cost.travel_time.value(), idx);
  }

  /// The next label in lexicographic order (up to kCriteriaEpsilon).
  std::uint32_t pop() {
    ++stats.queue_pops;
    return ws.queue.pop(PopsFirst{ws.arena.data()}).id;
  }

  /// Prices every out-edge of `current` that does not lead back to its
  /// parent's node, and queues each extension that can still make the
  /// time budget and that its node's staircase does not cover. Such a
  /// U-turn label costs at least the parent label in every criterion
  /// (edge costs are non-negative), and the parent label, or one that
  /// dominates it, is already in its node's staircase, so the U-turn
  /// could only be rejected there.
  void expand(const Label& current, std::uint32_t index) {
    const TimeOfDay now = departure.advanced_by(current.cost.travel_time);
    const roadnet::NodeId back =
        current.parent < 0
            ? roadnet::kInvalidNode
            : ws.arena[static_cast<std::uint32_t>(current.parent)].node;
    ws.edges.clear();
    for (const roadnet::EdgeId e : graph.out_edges(current.node))
      if (graph.edge(e).to != back) ws.edges.push_back(e);
    const std::span<const roadnet::EdgeId> edges = ws.edges;
    // Every out-edge is entered at the same clock. Under SlotQuantized
    // they share one slot column: resolve the slot once, then each edge
    // is an array read. Under Exact they are priced in one batch.
    const int slot = cache ? now.slot_index() : 0;
    if (!cache) {
      if (ws.prices.size() < edges.size()) {
        ws.speeds.resize(edges.size());
        ws.prices.resize(edges.size());
      }
      detail::price_edges(map, vehicle, edges, now, ws.speeds, ws.prices);
      pricings += edges.size();
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const roadnet::EdgeId e = edges[i];
      const Criteria next =
          current.cost +
          (cache ? cache->at(e, slot).criteria() : ws.prices[i]);
      const roadnet::NodeId to = graph.edge(e).to;
      // Can this label still reach the destination inside the budget?
      if (time_bound > 0.0 &&
          next.travel_time.value() + ws.lower_bounds[to] > time_bound) {
        ++stats.labels_pruned_bound;
        continue;  // cannot make the acceptable arrival time
      }
      ++stats.dominance_checks;
      if (detail::covers(ws.at(to).stairs, next))
        ++stats.labels_dominated;
      else
        push(to, next, e, static_cast<std::int32_t>(index));
    }
  }
};

/// The exact search: lazy dominance against the per-node staircases of
/// expanded labels. A new label is dropped when its node's staircase
/// covers it; a popped one is discarded when covered, else it joins the
/// staircase and is expanded. Returns the destination labels of the
/// Pareto set.
std::vector<std::uint32_t> staircase_search(Search& s, roadnet::NodeId origin,
                                            roadnet::NodeId destination) {
  auto& arena = s.ws.arena;
  auto& stats = s.stats;

  std::vector<std::uint32_t> arrivals;  // destination labels, pop order
  s.push(origin, Criteria{}, roadnet::kInvalidEdge, -1);
  while (!s.ws.queue.empty()) {
    const std::uint32_t index = s.pop();
    const Label current = arena[index];  // copy: arena may grow
    ++stats.dominance_checks;
    if (!detail::add_if_uncovered(s.ws.at(current.node).stairs,
                                  current.cost)) {
      ++stats.labels_dominated;
      continue;
    }
    // Expanding from the destination only finds cycles back to it, and
    // every cycle is dominated (criteria are non-negative additive).
    if (current.node == destination) {
      arrivals.push_back(index);
      continue;
    }
    s.expand(current, index);
  }

  // The queue pops travel times within eps of each other in (shade,
  // energy) order, so a later arrival may dominate an earlier one the
  // staircase already accepted. An earlier arrival never dominates a
  // later one: it was on the staircase when the later one popped, and
  // would have rejected it. So each arrival (time t) is compared with
  // later ones only, up to the first whose time f exceeds t + 2 eps:
  // every pop is within eps of the least time then queued, and that
  // least time never decreases, so any arrival after it has a time
  // >= f - eps > t + eps and cannot dominate.
  std::vector<std::uint32_t> frontier;
  frontier.reserve(arrivals.size());
  for (auto it = arrivals.begin(); it != arrivals.end(); ++it) {
    const Criteria& cost = arena[*it].cost;
    const double horizon = cost.travel_time.value() + 2 * kCriteriaEpsilon;
    bool dominated = false;
    for (auto later = it + 1; later != arrivals.end() && !dominated; ++later) {
      const Criteria& other = arena[*later].cost;
      if (other.travel_time.value() > horizon) break;
      dominated = dominates(other, cost);
    }
    if (!dominated) frontier.push_back(*it);
  }
  return frontier;
}

}  // namespace

MultiLabelCorrecting::MultiLabelCorrecting(WorldPtr world, MlcOptions options)
    : world_(std::move(world)), options_(options) {
  if (!world_) throw InvalidArgument("MultiLabelCorrecting: null world");
  static_cast<void>(world_->vehicle(options.vehicle));  // validates the index
  if (options.pricing == PricingMode::SlotQuantized)
    cache_ = &world_->slot_cache(options.vehicle);
  // Non-finite first: NaN slips through every ordered comparison below
  // (NaN < 0 is false), and an unchecked NaN/inf poisons time_bound and
  // silently disables the only prune the search has.
  if (!std::isfinite(options.max_time_factor))
    throw InvalidArgument("MultiLabelCorrecting: non-finite time factor");
  if (options.max_time_factor < 0.0)
    throw InvalidArgument("MultiLabelCorrecting: negative time factor");
  if (options.max_time_factor > 0.0 && options.max_time_factor < 1.0)
    throw InvalidArgument(
        "MultiLabelCorrecting: time factor below 1 excludes the shortest "
        "path itself");
}

MlcResult MultiLabelCorrecting::search(roadnet::NodeId origin,
                                       roadnet::NodeId destination,
                                       TimeOfDay departure) const {
  const solar::SolarInputMap& map = world_->solar_map();
  const ev::ConsumptionModel& vehicle = world_->vehicle(options_.vehicle);
  const auto& graph = map.graph();
  if (origin >= graph.node_count() || destination >= graph.node_count())
    throw GraphError("MultiLabelCorrecting::search: unknown node");

  const obs::SpanTimer span("mlc.search");
  const auto search_start = std::chrono::steady_clock::now();

  MlcResult result;

  // Time bound from the shortest-time baseline (also proves
  // reachability before the multi-criteria expansion starts).
  const auto shortest = detail::shortest_time_path(
      graph, map.traffic(), origin, destination, departure);
  if (!shortest)
    throw RoutingError("MultiLabelCorrecting::search: destination unreachable");
  result.stats.shortest_travel_time = shortest->travel_time;
  const double time_bound =
      options_.max_time_factor > 0.0
          ? shortest->travel_time.value() * options_.max_time_factor
          : 0.0;

  const WorkspaceLease lease(graph.node_count());
  Workspace& ws = *lease;

  // Time-to-destination lower bounds (the ROADMAP's ellipse pruning):
  // a reverse Dijkstra with static admissible edge weights, settled over
  // the whole component so every node a label can touch has a bound.
  // Admissibility makes the prune exact — a label it kills can only lead
  // to arrivals past the budget, and domination is downward-closed under
  // it (a dominating label has <= travel time, so it survives whenever
  // its victim would). Skipped when no budget is set; the bound at the
  // destination is 0, so in-budget arrivals never prune.
  if (time_bound > 0.0) {
    const obs::SpanTimer lb_span("mlc.lower_bounds");
    const auto lb_start = std::chrono::steady_clock::now();
    detail::time_lower_bounds(graph, map.traffic(), destination,
                              ws.lower_bounds);
    result.stats.lower_bound_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      lb_start)
            .count();
  }

  Search s(graph, map, vehicle, cache_, options_, departure, time_bound, ws,
           result.stats);
  const std::vector<std::uint32_t> pareto =
      staircase_search(s, origin, destination);

  // Rebuild the Pareto set's paths parent-by-parent.
  const std::vector<Label>& arena = s.ws.arena;
  for (const std::uint32_t idx : pareto) {
    if (origin == destination && arena[idx].parent == -1) {
      result.routes.push_back(ParetoRoute{{}, arena[idx].cost});
      continue;
    }
    ParetoRoute route;
    route.cost = arena[idx].cost;
    for (std::int32_t i = static_cast<std::int32_t>(idx);
         arena[static_cast<std::uint32_t>(i)].parent != -1;
         i = arena[static_cast<std::uint32_t>(i)].parent)
      route.path.edges.push_back(arena[static_cast<std::uint32_t>(i)].via_edge);
    std::reverse(route.path.edges.begin(), route.path.edges.end());
    result.routes.push_back(std::move(route));
  }
  std::sort(result.routes.begin(), result.routes.end(),
            [](const ParetoRoute& a, const ParetoRoute& b) {
              return lex_less(a.cost, b.cost);
            });
  result.stats.pareto_size = result.routes.size();

  result.stats.search_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    search_start)
          .count();
  const MlcMetrics& metrics = MlcMetrics::get();
  metrics.labels_created.add(result.stats.labels_created);
  metrics.labels_dominated.add(result.stats.labels_dominated);
  metrics.dominance_checks.add(result.stats.dominance_checks);
  metrics.queue_pops.add(result.stats.queue_pops);
  metrics.queries.add();
  metrics.labels_pruned_bound.add(result.stats.labels_pruned_bound);
  map.count_evaluations(s.pricings);
  if (result.stats.lower_bound_seconds > 0.0)
    metrics.lower_bound_latency.observe(result.stats.lower_bound_seconds);
  metrics.latency.observe(result.stats.search_seconds);
  SUNCHASE_LOG(Debug) << "mlc: " << origin << "->" << destination << " @ "
                      << departure.to_string() << ": "
                      << result.stats.labels_created << " labels, "
                      << result.stats.labels_dominated << " dominated, "
                      << result.stats.dominance_checks << " checks, "
                      << result.stats.queue_pops << " pops, Pareto set "
                      << result.stats.pareto_size;
  return result;
}

}  // namespace sunchase::core
