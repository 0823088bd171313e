#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"
#include "sunchase/common/rng.h"
#include "sunchase/common/time_of_day.h"
#include "sunchase/core/dijkstra.h"
#include "sunchase/core/kmeans.h"
#include "sunchase/core/world_codec.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/geo/latlon.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/scenegen.h"
#include "sunchase/shadow/shading.h"
#include "sunchase/solar/panel.h"

namespace perfbench {

using namespace sunchase;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (logged_++ < 10)
    std::fprintf(stderr, "perfbench: failed operation: %s\n", what.c_str());
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0 && logged_++ < 10)
    std::fprintf(stderr, "perfbench: %llu failed operations, first: %s\n",
                 static_cast<unsigned long long>(failed), what.c_str());
}

void Report::check_failed(const std::string& what) {
  checks_ok_ = false;
  if (logged_++ < 10)
    std::fprintf(stderr, "perfbench: failed check: %s\n", what.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += (checks_ok_ && failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof value, "%.10g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<std::string> Report::metric_names() const {
  std::vector<std::string> names;
  for (const Metric& m : metrics_) names.push_back(m.name);
  return names;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return mean({values.begin() + static_cast<std::ptrdiff_t>(n / 4),
               values.end() - static_cast<std::ptrdiff_t>(n / 4)});
}

TailPercentile tail_percentile(const std::vector<double>& values) {
  static constexpr double kLadder[] = {90.0, 85.0, 80.0, 75.0};
  TailPercentile tail;
  tail.samples = values.size();
  for (const double p : kLadder) {
    if (static_cast<double>(values.size()) * (100.0 - p) / 100.0 >= 10.0) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = quantile(values, tail.percentile / 100.0);
  return tail;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& key) {
  const auto a = after.counters.find(key);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(key);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int SpanLog::add(const char* name, std::uint32_t op, int parent,
                 Clock::time_point start, Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, op, parent, seconds_between(origin_, start),
                    seconds_between(origin_, end)});
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::add_duration(const char* name, std::uint32_t op, int parent,
                          double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const double start =
      parent >= 0 ? spans_[static_cast<std::size_t>(parent)].start_s : 0.0;
  spans_.push_back({name, op, parent, start, start + seconds});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanLog::Layer> SpanLog::layers() const {
  std::vector<double> child_total(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_total[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::vector<Layer> rows;
  std::map<std::string, std::size_t> index;
  std::vector<std::vector<double>> durations;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = index.try_emplace(s.name, rows.size());
    if (fresh) {
      rows.push_back(Layer{s.name});
      durations.emplace_back();
    }
    Layer& row = rows[it->second];
    const double d = s.end_s - s.start_s;
    ++row.count;
    row.total_s += d;
    row.self_s += d - child_total[i];
    durations[it->second].push_back(d);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].p50_s = quantile(durations[i], 0.50);
    rows[i].p99_s = quantile(durations[i], 0.99);
  }
  return rows;
}

SpanLog::Layer SpanLog::layer(const std::string& name) const {
  for (const Layer& row : layers())
    if (row.name == name) return row;
  return Layer{name};
}

double SpanLog::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) total += s.end_s - s.start_s;
  return total;
}

double SpanLog::over_attributed_share() const {
  double over = 0.0;
  for (const Layer& row : layers()) over += std::max(0.0, -row.self_s);
  const double root = root_total_s();
  return root > 0.0 ? over / root : 0.0;
}

double SpanLog::root_total_s() const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.parent < 0) total += s.end_s - s.start_s;
  return total;
}

void SpanLog::print_table(const char* title) const {
  const std::vector<Layer> rows = layers();
  const double root = root_total_s();
  std::printf("%s\n%-22s %8s %12s %12s %7s %11s %11s\n", title, "layer",
              "count", "total_ms", "self_ms", "self%", "p50_ms", "p99_ms");
  for (const Layer& r : rows)
    std::printf("%-22s %8zu %12.3f %12.3f %6.1f%% %11.4f %11.4f\n",
                r.name.c_str(), r.count, r.total_s * 1e3, r.self_s * 1e3,
                root > 0.0 ? 100.0 * r.self_s / root : 0.0, r.p50_s * 1e3,
                r.p99_s * 1e3);
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, s.op, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
}

CityWorld build_city_world(int lattice) {
  CityWorld out;
  const Clock::time_point t0 = Clock::now();
  roadnet::GridCityOptions options;
  options.rows = lattice;
  options.cols = lattice;
  options.seed = 7;
  out.city = std::make_unique<roadnet::GridCity>(options);
  const geo::LocalProjection projection(options.origin);
  const shadow::Scene scene = shadow::generate_scene(
      out.city->graph(), projection, shadow::SceneGenOptions{});
  const Clock::time_point t1 = Clock::now();

  core::WorldInit init;
  init.graph = std::make_shared<const roadnet::RoadGraph>(out.city->graph());
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute_exact(
          *init.graph, scene, geo::DayOfYear{196}, TimeOfDay::hms(8, 0),
          TimeOfDay::hms(18, 30)));
  const Clock::time_point t2 = Clock::now();

  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  init.panel_power = solar::constant_panel_power(Watts{200.0});
  init.vehicles.push_back(
      std::shared_ptr<const ev::ConsumptionModel>(ev::make_lv_prototype()));
  out.world = core::World::create(std::move(init));
  const Clock::time_point t3 = Clock::now();

  out.citygen_s = seconds_between(t0, t1);
  out.shading_s = seconds_between(t1, t2);
  out.world_s = seconds_between(t2, t3);
  return out;
}

std::string crowd_fold_body(std::uint64_t seed, std::size_t edge_count,
                            std::size_t count) {
  Rng rng(seed);
  std::string body = "{\"observations\":[";
  for (std::size_t i = 0; i < count; ++i) {
    const auto edge =
        rng.uniform_int(0, static_cast<std::int64_t>(edge_count) - 1);
    const auto slot = rng.uniform_int(32, 67);  // 08:00–16:45 slot starts
    char obs[160];
    std::snprintf(obs, sizeof obs,
                  "%s{\"edge\":%lld,\"slot\":%lld,\"shaded_fraction\":%.4f,"
                  "\"vehicle_id\":%lld}",
                  i == 0 ? "" : ",", static_cast<long long>(edge),
                  static_cast<long long>(slot), rng.uniform(),
                  static_cast<long long>(rng.uniform_int(1, 64)));
    body += obs;
  }
  body += "]}";
  return body;
}

void split_plan(SpanLog& spans, std::uint32_t op, int plan_span,
                const core::WorldPtr& world,
                const core::PlannerOptions& options, roadnet::NodeId origin,
                roadnet::NodeId destination, TimeOfDay departure,
                PlanLayerCounts& counts) {
  Clock::time_point t0 = Clock::now();
  const core::MlcResult search = core::MultiLabelCorrecting(world, options.mlc)
                                     .search(origin, destination, departure);
  const int search_span =
      spans.add("mlc.search", op, plan_span, t0, Clock::now());
  spans.add_duration("mlc.lower_bounds", op, search_span,
                     search.stats.lower_bound_seconds);
  t0 = Clock::now();
  (void)core::shortest_time_path(world, origin, destination, departure);
  spans.add("dijkstra.shortest", op, search_span, t0, Clock::now());

  t0 = Clock::now();
  const core::SelectionResult selection = core::select_representative_routes(
      search.routes, world, departure, options.selection, options.mlc.vehicle);
  const int selection_span =
      spans.add("selection", op, plan_span, t0, Clock::now());
  std::vector<core::LabelVector> points;
  points.reserve(search.routes.size());
  for (const core::ParetoRoute& r : search.routes)
    points.push_back({r.cost.travel_time.value(), r.cost.shaded_time.value(),
                      r.cost.energy_out.value()});
  const std::vector<core::LabelVector> normalized =
      core::normalize_dimensions(std::move(points));
  t0 = Clock::now();
  const core::Clustering clustering =
      core::bisecting_kmeans(normalized, options.selection.clustering);
  spans.add("kmeans", op, selection_span, t0, Clock::now());

  counts.plans += 1;
  counts.created += static_cast<double>(search.stats.labels_created);
  counts.dominated += static_cast<double>(search.stats.labels_dominated);
  counts.pops += static_cast<double>(search.stats.queue_pops);
  counts.pruned += static_cast<double>(search.stats.labels_pruned_bound);
  counts.pareto += static_cast<double>(search.stats.pareto_size);
  counts.clusters += static_cast<double>(clustering.clusters.size());
  // candidates[0] and one representative are the shortest-time route.
  counts.survivors += static_cast<double>(selection.candidates.size()) - 1;
  counts.representatives +=
      static_cast<double>(selection.representative_count) - 1;
}

void report_plan_layers(Report& report, const SpanLog& spans,
                        const PlanLayerCounts& c) {
  const double plans = std::max(1.0, c.plans);
  const auto per_plan_ms = [&](const char* name) {
    return spans.total_s(name) / plans * 1e3;
  };
  const double root = spans.root_total_s();
  report.metric("mlc.search_ms", per_plan_ms("mlc.search"), "ms");
  report.metric("mlc.labels_created", c.created / plans, "count");
  report.metric("mlc.labels_dominated", c.dominated / plans, "count");
  report.metric("mlc.queue_pops", c.pops / plans, "count");
  report.metric("mlc.labels_pruned_bound", c.pruned / plans, "count");
  report.metric("mlc.pareto_size", c.pareto / plans, "count");
  report.metric("mlc.label_survival_ratio",
                c.created > 0 ? 1.0 - c.dominated / c.created : 0.0, "ratio");
  report.metric("mlc.share_of_op",
                root > 0 ? spans.total_s("mlc.search") / root : 0.0, "ratio");
  report.metric("mlc.lower_bounds_ms", per_plan_ms("mlc.lower_bounds"), "ms");
  report.metric("dijkstra.shortest_ms", per_plan_ms("dijkstra.shortest"),
                "ms");
  report.metric("kmeans.ms", per_plan_ms("kmeans"), "ms");
  report.metric("kmeans.clusters", c.clusters / plans, "count");
  report.metric("selection.ms", per_plan_ms("selection"), "ms");
  report.metric("selection.pass_ratio",
                c.representatives > 0 ? c.survivors / c.representatives : 0.0,
                "ratio");
  report.metric("planner.self_ms",
                spans.layer("planner.plan").self_s / plans * 1e3, "ms");
}

PublishTiming time_publish_layers(core::WorldStore& store,
                                  const std::string& scratch_file) {
  PublishTiming out;
  const core::WorldInit recipe = store.current()->recipe();
  const Clock::time_point t0 = Clock::now();
  const core::WorldPtr probe = core::World::create(recipe);
  const Clock::time_point t1 = Clock::now();
  core::save_world_snapshot(*probe, scratch_file);
  const Clock::time_point t2 = Clock::now();
  out.version = store.publish(recipe)->version();
  const Clock::time_point t3 = Clock::now();
  out.world_create_s = seconds_between(t0, t1);
  out.snapshot_write_s = seconds_between(t1, t2);
  out.store_publish_s = seconds_between(t2, t3);
  return out;
}

}  // namespace perfbench
