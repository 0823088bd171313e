// MLC search-space pruning scaling: corner-to-corner Pareto searches on
// generated n x n cities (hashed shading, urban traffic) up to n = 32,
// where the exact search's cost grows fastest, run with a 1.1x time
// budget (pruned against reverse-Dijkstra lower bounds) and with none.
// The paper notes the Pareto search is the expensive step its route
// merging exists to tame; this bench tracks what the budget pruning
// actually saves (labels created, queue pops, dominance checks,
// latency). Writes BENCH_mlc.json for CI trend tracking
// (tools/bench_compare.py gates on it).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "paper_world.h"

#include "sunchase/core/mlc.h"
#include "sunchase/obs/metrics.h"

using namespace sunchase;

namespace {

struct ScalingWorld {
  explicit ScalingWorld(int n)
      : city(options_for(n)), proj(city.options().origin) {
    core::WorldInit init;
    init.graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::compute(
            *init.graph,
            [](roadnet::EdgeId e, TimeOfDay when) {
              const auto h = static_cast<std::uint64_t>(e) * 2654435761u +
                             static_cast<std::uint64_t>(when.slot_index());
              return static_cast<double>(h % 900) / 1000.0;
            },
            TimeOfDay::hms(8, 0), TimeOfDay::hms(18, 0)));
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_lv_prototype()));
    world = core::World::create(std::move(init));
  }

  static roadnet::GridCityOptions options_for(int n) {
    roadnet::GridCityOptions opt;
    opt.rows = n;
    opt.cols = n;
    return opt;
  }

  roadnet::GridCity city;
  geo::LocalProjection proj;
  core::WorldPtr world;
};

ScalingWorld& world_of(int n) {
  static std::map<int, std::unique_ptr<ScalingWorld>> cache;
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<ScalingWorld>(n);
  return *slot;
}

/// The budgeted rows' time factor; the "unbounded" rows run with none.
constexpr double kTimeBudget = 1.1;

/// One corner-to-corner search of the n x n world at 10:00.
core::MlcResult corner_search(int n, double max_time_factor) {
  ScalingWorld& w = world_of(n);
  core::MlcOptions opt;
  opt.max_time_factor = max_time_factor;
  return core::MultiLabelCorrecting(w.world, opt)
      .search(w.city.node_at(0, 0), w.city.node_at(n - 1, n - 1),
              TimeOfDay::hms(10, 0));
}

struct Sample {
  int n = 0;
  const char* mode = "pruned";  ///< "pruned" or "unbounded"
  double queries_per_second = 0.0;
  double search_seconds = 0.0;      ///< mean per query
  double lower_bound_seconds = 0.0; ///< mean per query (0 unbounded)
  std::size_t labels_created = 0;
  std::size_t dominance_checks = 0;
  std::size_t labels_pruned_bound = 0;
  std::size_t queue_pops = 0;
  std::size_t pareto_size = 0;
};

/// Best-of-`repeats` search at one configuration; stats come from the
/// fastest repeat (all repeats produce identical stats — the search is
/// deterministic — so "best" only picks the least-noisy timing).
Sample run_config(int n, bool budgeted, int repeats) {
  Sample s;
  s.n = n;
  s.mode = budgeted ? "pruned" : "unbounded";
  double best = -1.0;
  for (int r = 0; r < repeats; ++r) {
    const auto result = corner_search(n, budgeted ? kTimeBudget : 0.0);
    if (best < 0.0 || result.stats.search_seconds < best) {
      best = result.stats.search_seconds;
      s.search_seconds = result.stats.search_seconds;
      s.lower_bound_seconds = result.stats.lower_bound_seconds;
      s.labels_created = result.stats.labels_created;
      s.dominance_checks = result.stats.dominance_checks;
      s.labels_pruned_bound = result.stats.labels_pruned_bound;
      s.queue_pops = result.stats.queue_pops;
      s.pareto_size = result.stats.pareto_size;
    }
  }
  s.queries_per_second = s.search_seconds > 0.0 ? 1.0 / s.search_seconds : 0.0;
  return s;
}

/// Whether the budgeted search's frontier at n is the unbounded one's
/// routes within the budget, costs and paths alike.
bool budgeted_frontier_is_filtered_unbounded(int n) {
  const core::MlcResult budgeted = corner_search(n, kTimeBudget);
  core::MlcResult unbounded = corner_search(n, 0.0);
  const double bound =
      budgeted.stats.shortest_travel_time.value() * kTimeBudget;
  std::erase_if(unbounded.routes, [&](const core::ParetoRoute& r) {
    return r.cost.travel_time.value() > bound;
  });
  return std::equal(budgeted.routes.begin(), budgeted.routes.end(),
                    unbounded.routes.begin(), unbounded.routes.end(),
                    [](const core::ParetoRoute& a, const core::ParetoRoute& b) {
                      return a.cost == b.cost && a.path.edges == b.path.edges;
                    });
}

}  // namespace

int main(int argc, char** argv) {
  const int repeats = argc > 1 ? std::atoi(argv[1]) : 3;
  bench::banner("MLC search-space pruning scaling",
                "budget pruning on the exact Pareto search");

  const std::vector<int> sizes = {6, 8, 10, 12, 16, 24, 32};
  const int largest = sizes.back();

  std::vector<Sample> samples;
  std::printf("corner-to-corner searches, time budget %.1fx or none, "
              "10:00, best of %d\n\n", kTimeBudget, repeats);
  std::printf("%4s %9s %8s %9s %8s %10s %10s %10s %7s\n", "n", "mode",
              "ms", "lb_ms", "labels", "checks", "pruned", "pops", "pareto");
  for (const int n : sizes) {
    for (const bool budgeted : {false, true}) {
      const Sample s = run_config(n, budgeted, repeats);
      samples.push_back(s);
      std::printf("%4d %9s %8.2f %9.3f %8zu %10zu %10zu %10zu %7zu\n",
                  s.n, s.mode, s.search_seconds * 1e3,
                  s.lower_bound_seconds * 1e3, s.labels_created,
                  s.dominance_checks, s.labels_pruned_bound, s.queue_pops,
                  s.pareto_size);
    }
  }

  // Exactness spot check riding along with the measurement: the budget
  // must only cut the frontier, never change what is inside it (the
  // tests pin this too, but a silent regression here would quietly
  // invalidate the bench's pruned-vs-unbounded comparison).
  if (!budgeted_frontier_is_filtered_unbounded(largest)) {
    std::fprintf(stderr,
                 "error: pruned frontier differs from the unbounded one "
                 "within the budget at n=%d\n",
                 largest);
    return 1;
  }

  const char* json_path = argc > 2 ? argv[2] : "BENCH_mlc.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"perf_mlc_scaling\",\n");
    std::fprintf(f, "  \"time_budget\": %.1f,\n  \"repeats\": %d,\n",
                 kTimeBudget, repeats);
    std::fprintf(f, "  \"largest_n\": %d,\n", largest);
    std::fprintf(f, "  \"samples\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(f,
                   "    {\"n\": %d, \"mode\": \"%s\", "
                   "\"queries_per_second\": %.3f, "
                   "\"search_seconds\": %.6f, "
                   "\"lower_bound_seconds\": %.6f, "
                   "\"labels_created\": %zu, \"dominance_checks\": %zu, "
                   "\"labels_pruned_bound\": %zu, "
                   "\"queue_pops\": %zu, \"pareto_size\": %zu}%s\n",
                   s.n, s.mode, s.queries_per_second, s.search_seconds,
                   s.lower_bound_seconds, s.labels_created,
                   s.dominance_checks, s.labels_pruned_bound, s.queue_pops,
                   s.pareto_size, i + 1 < samples.size() ? "," : "");
    }
    // Registry snapshot: the mlc.* counter family (created / checks /
    // pruned / lower-bound build seconds) for CI trend tracking.
    const std::string metrics =
        sunchase::obs::Registry::global().snapshot().to_json(2);
    std::fprintf(f, "  ],\n  \"metrics\":\n%s\n}\n", metrics.c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
