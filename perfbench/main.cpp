// The SunChase benchmark program. One workload per run:
//
//   sunchase_perfbench --workload pareto-large|publish-churn
//       --seed N --seconds S --trace 0|1 --work-dir DIR
//       [--reference FILE] [--tiny] [--record]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the traced variant and reports the per-layer metrics. The last
// line of stdout is the result object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. run.py builds this
// program and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "bench.h"
#include "sunchase/common/logging.h"

namespace {

/// Every per-layer metric a traced run prints; a layer a workload does
/// not run reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"mlc.search_ms", "ms"},
    {"mlc.labels_created", "count"},
    {"mlc.labels_dominated", "count"},
    {"mlc.queue_pops", "count"},
    {"mlc.labels_pruned_bound", "count"},
    {"mlc.pareto_size", "count"},
    {"mlc.label_survival_ratio", "ratio"},
    {"mlc.share_of_op", "ratio"},
    {"mlc.lower_bounds_ms", "ms"},
    {"dijkstra.shortest_ms", "ms"},
    {"kmeans.ms", "ms"},
    {"kmeans.clusters", "count"},
    {"selection.ms", "ms"},
    {"selection.pass_ratio", "ratio"},
    {"planner.self_ms", "ms"},
    {"solar.evaluate_calls_per_op", "calls/op"},
    {"slotcache.hit_ratio", "ratio"},
    {"slotcache.fills", "count"},
    {"slotcache.fill_ms", "ms"},
    {"batch.queue_wait_ms", "ms"},
    {"batch.cpu_utilization", "ratio"},
    {"world.create_ms", "ms"},
    {"world_store.publish_ms", "ms"},
    {"snapshot.write_ms", "ms"},
    {"http.parse_us", "us"},
    {"http.render_us", "us"},
    {"json.parse_us", "us"},
    {"service.handle_ms", "ms"},
    {"service.self_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"loadgen.conn_wait_ms", "ms"},
    {"tail.conn_wait_share", "ratio"},
    {"tail.handling_share", "ratio"},
    {"setup.citygen_s", "s"},
    {"setup.shading_s", "s"},
    {"setup.world_s", "s"},
    {"loadgen.late_ms", "ms"},
    {"loadgen.sent_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"trace.conservation_error", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: sunchase_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--reference FILE] "
               "[--tiny] [--record]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny" || arg == "--record") {
      (arg == "--tiny" ? args.tiny : args.record) = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload")
      args.workload = value;
    else if (arg == "--seed")
      args.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds")
      args.seconds = std::atof(value);
    else if (arg == "--trace")
      args.trace = std::string(value) == "1";
    else if (arg == "--work-dir")
      args.work_dir = value;
    else if (arg == "--reference")
      args.reference_file = value;
    else
      return usage();
  }
  if (args.work_dir.empty() || !(args.seconds > 0.0)) return usage();
  std::filesystem::create_directories(args.work_dir);
  sunchase::set_log_level(sunchase::LogLevel::Warning);

  perfbench::Report report;
  try {
    if (args.workload == "pareto-large")
      perfbench::run_pareto(args, report);
    else if (args.workload == "publish-churn")
      perfbench::run_churn(args, report);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.record) return 0;
  if (args.trace) {
    // Layers the workload bypasses read 0.
    std::set<std::string> have;
    for (const auto& m : report.metric_names()) have.insert(m);
    for (const LayerMetric& m : kLayerMetrics)
      if (have.count(m.name) == 0) report.metric(m.name, 0.0, m.unit);
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
