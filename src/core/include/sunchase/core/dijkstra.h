// Time-dependent shortest-travel-time search: the paper's baseline
// ("the shortest-path (shortest travel time) algorithm") and the source
// of the arrival-time bound that makes longer candidate routes
// "acceptable".
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "sunchase/common/time_of_day.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/roadnet/path.h"
#include "sunchase/roadnet/traffic.h"

namespace sunchase::core {

struct ShortestTimeResult {
  roadnet::Path path;
  Seconds travel_time{0.0};
};

/// Dijkstra over travel time on the snapshot's graph and traffic model,
/// with each edge's speed evaluated at the clock time the vehicle
/// enters it (departure + elapsed). Travel times are positive, so
/// label-settling optimality holds (FIFO network). Returns nullopt when
/// `destination` is unreachable from `origin`. Throws InvalidArgument
/// for a null world; GraphError for unknown nodes.
[[nodiscard]] std::optional<ShortestTimeResult> shortest_time_path(
    const WorldPtr& world, roadnet::NodeId origin,
    roadnet::NodeId destination, TimeOfDay departure);

namespace detail {

/// Whether a per-thread search workspace holding `bytes` is kept for
/// the next query: only while it holds 1 to 16 MB. Smaller ones malloc
/// recycles as cheaply (measured: kept in every server worker they only
/// added resident memory); larger ones, beyond a 32x32-city query's
/// quarter million labels, would let one outlier query or world pin
/// memory in every thread.
[[nodiscard]] constexpr bool retain_workspace(std::size_t bytes) noexcept {
  return bytes >= (std::size_t{1} << 20) && bytes <= (std::size_t{16} << 20);
}

/// Node-indexed Dijkstra state — tentative distance, incoming edge and
/// settled mark per node, plus the heap — reset between runs by a
/// generation stamp, so a run touches only the nodes it reaches and a
/// reused state allocates nothing.
class DijkstraState {
 public:
  /// Starts a run over `node_count` nodes, all unreached.
  void begin(std::size_t node_count);

  /// The run's distance to `v`: +infinity when unreached.
  [[nodiscard]] double operator[](roadnet::NodeId v) const noexcept {
    const Node& n = nodes_[v];
    return n.reached == generation_ ? n.dist
                                    : std::numeric_limits<double>::infinity();
  }
  /// Node count of the current run.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Lowers `v`'s distance to `d` through `via` and queues it; a no-op
  /// unless `d` is below the current distance.
  void relax(roadnet::NodeId v, double d, roadnet::EdgeId via);
  /// Pops the nearest queued node not yet settled and settles it;
  /// nullopt once the queue is empty. Equal distances pop by node id.
  [[nodiscard]] std::optional<std::pair<double, roadnet::NodeId>> settle_next();
  [[nodiscard]] bool settled(roadnet::NodeId v) const noexcept {
    return nodes_[v].settled == generation_;
  }
  /// The edge the current distance of a reached node came through.
  [[nodiscard]] roadnet::EdgeId via(roadnet::NodeId v) const noexcept {
    return nodes_[v].via;
  }

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Node) +
           heap_.capacity() * sizeof(std::pair<double, roadnet::NodeId>);
  }

 private:
  struct Node {
    double dist = 0.0;
    roadnet::EdgeId via = roadnet::kInvalidEdge;
    std::uint32_t reached = 0;  ///< dist/via valid when == generation_
    std::uint32_t settled = 0;  ///< settled when == generation_
  };
  std::vector<Node> nodes_;
  std::vector<std::pair<double, roadnet::NodeId>> heap_;  ///< min-heap
  std::uint32_t generation_ = 0;
  std::size_t size_ = 0;
};

/// Implementation primitive over snapshot components (see edge_cost.h).
/// Runs on the calling thread's reusable DijkstraState.
[[nodiscard]] std::optional<ShortestTimeResult> shortest_time_path(
    const roadnet::RoadGraph& graph, const roadnet::TrafficModel& traffic,
    roadnet::NodeId origin, roadnet::NodeId destination, TimeOfDay departure);

/// Admissible time-to-destination lower bounds for every node, written
/// into `bounds` (reusing its arrays): a reverse Dijkstra from
/// `destination` over the reversed adjacency, with the static per-edge
/// weight `length / max_speed(edge)` (a lower bound on the edge's
/// travel time at ANY clock, TrafficModel::min_travel_time). The search
/// settles the whole reachable component — it must NOT early-exit,
/// because the caller (MLC budget pruning) consults the bound at every
/// node a label touches, not at one target. Nodes that cannot reach
/// `destination` read +infinity (any label there is dead and prunes
/// immediately). Throws GraphError for an unknown node.
void time_lower_bounds(const roadnet::RoadGraph& graph,
                       const roadnet::TrafficModel& traffic,
                       roadnet::NodeId destination, DijkstraState& bounds);

}  // namespace detail

}  // namespace sunchase::core
