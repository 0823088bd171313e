#include "sunchase/core/dijkstra.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"

namespace sunchase::core {

std::optional<ShortestTimeResult> shortest_time_path(
    const WorldPtr& world, roadnet::NodeId origin,
    roadnet::NodeId destination, TimeOfDay departure) {
  if (!world) throw InvalidArgument("shortest_time_path: null world");
  return detail::shortest_time_path(world->graph(), world->traffic(), origin,
                                    destination, departure);
}

namespace detail {

void DijkstraState::begin(std::size_t node_count) {
  heap_.clear();
  if (nodes_.size() < node_count) nodes_.resize(node_count);
  size_ = node_count;
  if (++generation_ == 0) {  // wrapped: no stale stamp may match again
    for (Node& n : nodes_) n = Node{};
    generation_ = 1;
  }
}

void DijkstraState::relax(roadnet::NodeId v, double d, roadnet::EdgeId via) {
  if (!(d < (*this)[v])) return;
  nodes_[v].dist = d;
  nodes_[v].via = via;
  nodes_[v].reached = generation_;
  heap_.emplace_back(d, v);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::optional<std::pair<double, roadnet::NodeId>>
DijkstraState::settle_next() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto top = heap_.back();
    heap_.pop_back();
    Node& n = nodes_[top.second];
    if (n.settled == generation_) continue;  // stale entry
    n.settled = generation_;
    return top;
  }
  return std::nullopt;
}

namespace {

/// The calling thread's DijkstraState for shortest_time_path, kept
/// between queries under retain_workspace (like the MLC workspace).
class StateLease {
 public:
  explicit StateLease(std::size_t node_count) : state_(local()) {
    state_.begin(node_count);
  }
  ~StateLease() {
    if (!retain_workspace(state_.capacity_bytes())) state_ = DijkstraState{};
  }
  StateLease(const StateLease&) = delete;
  StateLease& operator=(const StateLease&) = delete;

  DijkstraState& operator*() const noexcept { return state_; }

 private:
  static DijkstraState& local() {
    thread_local DijkstraState state;
    return state;
  }
  DijkstraState& state_;
};

}  // namespace

std::optional<ShortestTimeResult> shortest_time_path(
    const roadnet::RoadGraph& graph, const roadnet::TrafficModel& traffic,
    roadnet::NodeId origin, roadnet::NodeId destination, TimeOfDay departure) {
  const std::size_t n = graph.node_count();
  if (origin >= n || destination >= n)
    throw GraphError("shortest_time_path: unknown node");

  const StateLease lease(n);
  DijkstraState& state = *lease;
  state.relax(origin, 0.0, roadnet::kInvalidEdge);
  while (const auto top = state.settle_next()) {
    const auto [d, u] = *top;  // elapsed seconds, node
    if (u == destination) break;
    const TimeOfDay now = departure.advanced_by(Seconds{d});
    for (const roadnet::EdgeId e : graph.out_edges(u)) {
      const roadnet::NodeId v = graph.edge(e).to;
      if (state.settled(v)) continue;
      state.relax(v, d + traffic.travel_time(graph, e, now).value(), e);
    }
  }

  const double arrival = state[destination];
  if (std::isinf(arrival)) return std::nullopt;

  ShortestTimeResult result;
  result.travel_time = Seconds{arrival};
  for (roadnet::NodeId u = destination; u != origin;) {
    const roadnet::EdgeId e = state.via(u);
    result.path.edges.push_back(e);
    u = graph.edge(e).from;
  }
  std::reverse(result.path.edges.begin(), result.path.edges.end());
  return result;
}

void time_lower_bounds(const roadnet::RoadGraph& graph,
                       const roadnet::TrafficModel& traffic,
                       roadnet::NodeId destination, DijkstraState& bounds) {
  if (destination >= graph.node_count())
    throw GraphError("time_lower_bounds: unknown node");

  bounds.begin(graph.node_count());
  bounds.relax(destination, 0.0, roadnet::kInvalidEdge);
  while (const auto top = bounds.settle_next()) {
    const auto [d, u] = *top;  // bound in seconds, node
    for (const roadnet::EdgeId e : graph.in_edges(u)) {
      const roadnet::NodeId v = graph.edge(e).from;
      if (bounds.settled(v)) continue;
      bounds.relax(v, d + traffic.min_travel_time(graph, e).value(), e);
    }
  }
}

}  // namespace detail

}  // namespace sunchase::core
