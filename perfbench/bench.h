// Shared pieces of the SunChase benchmark: the result report, quantile
// helpers, process usage, the in-memory span log of the traced runs and
// the city world every workload builds the way `sunchase_cli` does.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sunchase/core/planner.h"
#include "sunchase/core/world.h"
#include "sunchase/core/world_store.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/roadnet/citygen.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The seed of item `index` of input stream `stream` (trips, queries,
/// arrival gaps, crowd folds) of a run: every generated input depends
/// only on the run's seed, its stream and its index.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream,
                                               std::uint64_t index) {
  return seed * std::uint64_t{0x9E3779B97F4A7C15} +
         stream * std::uint64_t{0xD1B54A32D192ED03} + index;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny lattices and short phases: the smoke test's mode.
  bool tiny = false;
  /// Scratch space inside the checkout (journals, span dumps).
  std::string work_dir;
  /// Recorded pareto-large frontier fingerprints (see reference/).
  std::string reference_file;
  /// Print the pareto-large pool's frontier fingerprints instead of
  /// measuring (the rows of the reference file).
  bool record = false;
};

/// What one run prints as its last line: output-check verdict, operation
/// tallies and the named metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; `ok == false` counts it failed and
  /// logs `what` (the first few only) to stderr.
  void op(bool ok, const std::string& what = {});
  /// Counts a batch of operations tallied elsewhere (e.g. by client
  /// threads); `what` describes the first failure.
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what = {});
  /// A failed output check that is not tied to one operation.
  void check_failed(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::vector<std::string> metric_names() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
  int logged_ = 0;
};

/// Linear-interpolated quantile of `values` (copied and sorted); 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);
/// Mean of the values between the first and third quartile. Unlike the
/// median, it moves smoothly when the values fall into two modes whose
/// mix changes from run to run.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

/// The highest percentile of the ladder p75 … p90 that still has at
/// least ten samples beyond it (p50 when none has), with its value. The
/// ladder stops at p90: on the shared virtual machine this was built
/// on, the host took the CPU away for about a tenth of the time, in
/// multi-millisecond stalls, so every percentile beyond p90 measured
/// those stalls rather than this program (perfbench/README.md).
struct TailPercentile {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] TailPercentile tail_percentile(const std::vector<double>& values);

/// How much a counter the program exports grew between two snapshots of
/// obs::Registry::global().
[[nodiscard]] std::uint64_t counter_delta(
    const sunchase::obs::MetricsSnapshot& before,
    const sunchase::obs::MetricsSnapshot& after, const std::string& key);

/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Spans recorded by the benchmark around its calls into each layer.
/// Kept in memory for the whole run and written out at the end; a
/// layer's self time is its duration minus its children's.
class SpanLog {
 public:
  SpanLog();
  /// Records a finished span; returns its id for children to name as
  /// parent (-1: a root, one per operation). Thread-safe.
  int add(const char* name, std::uint32_t op, int parent,
          Clock::time_point start, Clock::time_point end);
  /// A span whose duration the program reported itself (e.g. the
  /// lower-bound build inside a search): placed at its parent's start.
  int add_duration(const char* name, std::uint32_t op, int parent,
                   double seconds);

  struct Layer {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double p50_s = 0.0;
    double p99_s = 0.0;
  };
  /// One row per span name, in first-seen order.
  [[nodiscard]] std::vector<Layer> layers() const;
  /// The row named `name`, or an empty one.
  [[nodiscard]] Layer layer(const std::string& name) const;
  /// Total duration of the root spans (the operations).
  [[nodiscard]] double root_total_s() const;
  /// Time the split attributed to children beyond their parent's
  /// duration (negative self times), as a share of root_total_s().
  [[nodiscard]] double over_attributed_share() const;
  /// Total duration of the spans named `name` (0 when none).
  [[nodiscard]] double total_s(const std::string& name) const;

  void print_table(const char* title) const;
  /// Chrome trace_event JSON of every span.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t op;
    int parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::mutex mutex_;  ///< guards spans_ while client threads record
  std::vector<Span> spans_;
};

/// The traced runs split a layer's time by running the layers under it
/// again on the same input, so a child can read longer than the part of
/// its parent it stands for. The run's check fails when such
/// over-attributed time exceeds this share of the operations' wall time.
inline constexpr double kConservationTolerance = 0.10;

/// A generated city and its world snapshot, built as `sunchase_cli`
/// builds one (city seed 7, generated scene, exact shading 08:00–18:30
/// on day 196, urban traffic, 200 W panel, LV prototype), with the time
/// each set-up stage took.
struct CityWorld {
  std::unique_ptr<sunchase::roadnet::GridCity> city;
  sunchase::core::WorldPtr world;
  double citygen_s = 0.0;
  double shading_s = 0.0;
  double world_s = 0.0;
};
[[nodiscard]] CityWorld build_city_world(int lattice);

/// Median times of a run's complete set-ups and of their stages.
struct SetupTimes {
  double setup_s = 0.0, citygen_s = 0.0, shading_s = 0.0, world_s = 0.0;
};

/// Runs a workload's complete set-up `count` times and returns the last:
/// build_city_world(lattice), then `start` on the city, which returns
/// what the workload keeps (the city itself, or a running server). What
/// one set-up kept is released before the next is timed. setup_s is the
/// median of the set-ups' times.
template <class Start>
auto set_up(int lattice, int count, Start start, SetupTimes& times) {
  using Kept = decltype(start(std::declval<CityWorld>()));
  Kept kept{};
  std::vector<double> total, citygen, shading, world;
  for (int i = 0; i < count; ++i) {
    kept = Kept{};
    const Clock::time_point t0 = Clock::now();
    CityWorld city = build_city_world(lattice);
    citygen.push_back(city.citygen_s);
    shading.push_back(city.shading_s);
    world.push_back(city.world_s);
    kept = start(std::move(city));
    total.push_back(seconds_between(t0, Clock::now()));
  }
  times = {median(total), median(citygen), median(shading), median(world)};
  return kept;
}

/// A seeded crowd-observation fold as the JSON body of
/// `POST /world/publish`: `count` reports over random edges and daytime
/// slots.
[[nodiscard]] std::string crowd_fold_body(std::uint64_t seed,
                                          std::size_t edge_count,
                                          std::size_t count);

/// One re-publish of a store's current recipe, and the layers it
/// crosses timed on their own: World::create and save_world_snapshot on
/// the same recipe, then WorldStore::publish (which runs both again
/// plus the journal's fsync and MANIFEST swap when journaling).
struct PublishTiming {
  double world_create_s = 0.0;
  double snapshot_write_s = 0.0;
  double store_publish_s = 0.0;
  std::uint64_t version = 0;  ///< the version the publish produced
};
[[nodiscard]] PublishTiming time_publish_layers(
    sunchase::core::WorldStore& store, const std::string& scratch_file);

/// Search and selection effort summed over the plans a traced run split.
struct PlanLayerCounts {
  double plans = 0, created = 0, dominated = 0, pops = 0, pruned = 0,
         pareto = 0, clusters = 0, survivors = 0, representatives = 0;
};

/// Runs the layers under SunChasePlanner::plan again on one query, each
/// recorded as a span: MultiLabelCorrecting::search under `plan_span`,
/// with its own lower-bound build and core::shortest_time_path under it,
/// then select_representative_routes under `plan_span` with
/// bisecting_kmeans on the same normalised label vectors under it.
/// Throws what the search throws.
void split_plan(SpanLog& spans, std::uint32_t op, int plan_span,
                const sunchase::core::WorldPtr& world,
                const sunchase::core::PlannerOptions& options,
                sunchase::roadnet::NodeId origin,
                sunchase::roadnet::NodeId destination,
                sunchase::TimeOfDay departure, PlanLayerCounts& counts);

/// The planner layers' per-layer metrics of a traced run, per plan;
/// `mlc.share_of_op` is the search's share of the operations' wall time.
void report_plan_layers(Report& report, const SpanLog& spans,
                        const PlanLayerCounts& counts);

void run_pareto(const Args& args, Report& report);
void run_churn(const Args& args, Report& report);

}  // namespace perfbench
