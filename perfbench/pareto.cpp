// pareto-large: one caller thread plans long trips on a 32×32 city with
// exact pricing, back to back (a closed loop). This is where the exact
// multi-label search grows fastest; no serve layer runs.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "sunchase/common/rng.h"
#include "sunchase/core/dijkstra.h"
#include "sunchase/core/planner.h"

namespace perfbench {

using namespace sunchase;

namespace {

/// Trips in the workload's pool; every untraced run plans all of them
/// in whole passes.
constexpr std::uint64_t kTripPool = 64;
/// The pool is drawn once from this seed, not from the run's seed: a
/// trip's cost swings by ±20% with its exact position and departure, so
/// a pool drawn per run seed made the run-to-run spread exceed the
/// benchmark's bounds. The run's seed orders each pass.
constexpr std::uint64_t kPoolSeed = 1;
/// A plan slower than this misses the workload's latency limit.
constexpr double kPlanLimitSeconds = 1.0;
/// Re-publishes timed after each plan of an untraced run;
/// publish_latency_ms is their interquartile mean.
constexpr int kPublishesPerPlan = 4;
/// The traced run's publishes, which also write journal snapshots.
constexpr int kTracedPublishes = 45;
/// Complete set-ups per run (3.4 s each at 32x32).
constexpr int kSetups = 3;

struct Trip {
  roadnet::NodeId origin = 0;
  roadnet::NodeId destination = 0;
  TimeOfDay departure;
};

/// Trip `index` of the pool. The pool is stratified: its 64 trips take
/// every pair of row and column offset bands (four each, between half
/// and all of the lattice) in every pair of travel directions once, and
/// departures cycle through the hours 08–16. Within that, the offsets,
/// the position on the lattice and the minute of departure are drawn.
Trip make_trip(std::uint64_t index, const roadnet::GridCity& city) {
  Rng rng(derive_seed(kPoolSeed, 1, index));
  const int n = city.options().rows;
  const int band = std::max(1, n / 8);
  const std::uint64_t cls = index % 16;
  const int dr = n / 2 + static_cast<int>(cls % 4) * band +
                 static_cast<int>(rng.uniform_int(0, band - 1));
  const int dc = n / 2 + static_cast<int>(cls / 4) * band +
                 static_cast<int>(rng.uniform_int(0, band - 1));
  int fr = static_cast<int>(rng.uniform_int(0, n - 1 - dr));
  int fc = static_cast<int>(rng.uniform_int(0, n - 1 - dc));
  int tr = fr + dr;
  int tc = fc + dc;
  if ((index / 16) % 2 == 1) std::swap(fr, tr);
  if ((index / 32) % 2 == 1) std::swap(fc, tc);
  const int hour = 8 + static_cast<int>((index * 7) % 9);
  const auto second = static_cast<int>(rng.uniform_int(0, 3599));
  return {city.node_at(fr, fc), city.node_at(tr, tc),
          TimeOfDay::hms(hour, second / 60, second % 60)};
}

/// The pool's trip indices in the order pass `pass` of a run with
/// `seed` plans them.
std::vector<std::uint64_t> pass_order(std::uint64_t seed, std::uint64_t pass) {
  std::vector<std::uint64_t> order(kTripPool);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  Rng rng(derive_seed(seed, 5, pass));
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  return order;
}

/// Order-independent fingerprint of a frontier's cost vectors.
std::string fingerprint(const std::vector<core::ParetoRoute>& routes) {
  std::vector<std::string> rows;
  rows.reserve(routes.size());
  for (const core::ParetoRoute& r : routes) {
    char row[96];
    std::snprintf(row, sizeof row, "%.9e,%.9e,%.9e;",
                  r.cost.travel_time.value(), r.cost.shaded_time.value(),
                  r.cost.energy_out.value());
    rows.emplace_back(row);
  }
  std::sort(rows.begin(), rows.end());
  std::uint64_t hash = std::uint64_t{14695981039346656037u};  // FNV-1a
  for (const std::string& row : rows)
    for (const char c : row) {
      hash ^= static_cast<unsigned char>(c);
      hash *= std::uint64_t{1099511628211u};
    }
  char out[17];
  std::snprintf(out, sizeof out, "%016" PRIx64, hash);
  return out;
}

/// Recorded fingerprints: "lattice trip fingerprint frontier_size" rows.
std::map<std::pair<int, std::uint64_t>, std::string> load_reference(
    const std::string& path) {
  std::map<std::pair<int, std::uint64_t>, std::string> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    int lattice = 0;
    std::uint64_t trip = 0;
    std::string print;
    if (row >> lattice >> trip >> print) ref[{lattice, trip}] = print;
  }
  return ref;
}

struct Outcome {
  std::uint64_t trip = 0;
  bool ok = false;
  std::string error;
  core::PlanResult plan;
};

Outcome plan_trip(const core::SunChasePlanner& planner, std::uint64_t index,
                  const Trip& trip) {
  Outcome out;
  out.trip = index;
  try {
    out.plan = planner.plan(trip.origin, trip.destination, trip.departure);
    out.ok = !out.plan.candidates.empty();
    if (!out.ok) out.error = "empty plan";
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// What the checks compare each plan of one trip with: its frontier,
/// searched again outside the timed loop, and the shortest travel time.
struct Expected {
  bool ok = false;
  std::string why;  ///< why the trip itself fails its checks
  std::vector<core::Criteria> frontier;
  double shortest_s = 0.0;
};

/// The frontier of one trip must be mutually non-dominated and match
/// the recorded fingerprint when one exists.
Expected expect(const core::WorldPtr& world, const core::MlcOptions& mlc,
                const Trip& trip, const std::string* reference) {
  Expected out;
  const auto shortest = core::shortest_time_path(world, trip.origin,
                                                 trip.destination,
                                                 trip.departure);
  if (!shortest) {
    out.why = "destination unreachable";
    return out;
  }
  out.shortest_s = shortest->travel_time.value();
  core::MlcResult search;
  try {
    search = core::MultiLabelCorrecting(world, mlc)
                 .search(trip.origin, trip.destination, trip.departure);
  } catch (const std::exception& e) {
    out.why = std::string("search: ") + e.what();
    return out;
  }
  for (const core::ParetoRoute& a : search.routes)
    for (const core::ParetoRoute& b : search.routes)
      if (&a != &b && core::dominates(a.cost, b.cost)) {
        out.why = "frontier holds a dominated route";
        return out;
      }
  if (reference != nullptr && fingerprint(search.routes) != *reference) {
    out.why = "frontier fingerprint differs from the recorded reference";
    return out;
  }
  for (const core::ParetoRoute& r : search.routes)
    out.frontier.push_back(r.cost);
  out.ok = true;
  return out;
}

/// One plan against its trip's expectation: the same frontier size,
/// every candidate on the frontier, and candidates[0] the shortest-time
/// route.
bool check_plan(const Outcome& outcome, const Expected& expected,
                std::string& why) {
  if (!outcome.ok || !expected.ok) {
    why = outcome.ok ? expected.why : outcome.error;
    return false;
  }
  const core::PlanResult& plan = outcome.plan;
  const double t0 = plan.candidates[0].route.cost.travel_time.value();
  if (std::abs(expected.shortest_s - t0) > 1e-9 * std::max(1.0, t0)) {
    why = "candidates[0] is not the shortest-time route";
    return false;
  }
  if (expected.frontier.size() != plan.pareto_route_count) {
    why = "frontier size differs between plan and search";
    return false;
  }
  for (const core::CandidateRoute& c : plan.candidates)
    if (std::find(expected.frontier.begin(), expected.frontier.end(),
                  c.route.cost) == expected.frontier.end()) {
      why = "a candidate is not on the frontier";
      return false;
    }
  return true;
}

void record_reference(int lattice) {
  const CityWorld city = build_city_world(lattice);
  const core::MultiLabelCorrecting solver(city.world, core::MlcOptions{});
  for (std::uint64_t i = 0; i < kTripPool; ++i) {
    const Trip trip = make_trip(i, *city.city);
    const core::MlcResult r =
        solver.search(trip.origin, trip.destination, trip.departure);
    std::printf("%d %" PRIu64 " %s %zu\n", lattice, i,
                fingerprint(r.routes).c_str(), r.routes.size());
    std::fflush(stdout);
  }
}

/// Times `count` re-publishes of the store's current recipe, each from
/// WorldStore::publish until the new world has priced one slot-cache
/// column, the first thing a slot-priced query on it needs. A publish
/// takes about 0.3 ms, so a burst of them samples one moment of the
/// host's speed, which on the shared virtual machine this was built on
/// swung by 1.8x from second to second. The untraced run therefore
/// spreads its publishes over the whole plan loop, a few after each
/// plan. The store keeps no journal: on the shared disks this was built
/// on, even writing the 32x32 snapshot to the page cache swung by 2x
/// between runs.
void time_publishes(core::WorldStore& store, int count, Report& report,
                    std::vector<double>& publish_s) {
  for (int p = 0; p < count; ++p) {
    const std::uint64_t last = store.version();
    const Clock::time_point t0 = Clock::now();
    const core::WorldPtr next = store.publish(store.current()->recipe());
    (void)next->slot_cache().at(0, TimeOfDay::hms(10, 0).slot_index());
    publish_s.push_back(seconds_between(t0, Clock::now()));
    report.op(next->version() == last + 1,
              "publish did not advance the version");
  }
}

/// The traced run's publishes, before its plan loop: re-publishes into
/// a journal, with World::create, save_world_snapshot and
/// WorldStore::publish timed on their own. Returns each layer's mean.
PublishTiming trace_publishes(const core::WorldPtr& world, const Args& args,
                              Report& report) {
  const std::string journal_dir =
      args.work_dir + "/journal-" + std::to_string(::getpid());
  PublishTiming layers{};
  {
    core::WorldStore store(world);
    core::JournalOptions journal;
    journal.directory = journal_dir;
    journal.durable = false;
    store.enable_journal(journal);
    std::uint64_t last = store.version();
    for (int p = 0; p < kTracedPublishes; ++p) {
      const PublishTiming t =
          time_publish_layers(store, journal_dir + "/probe.scsnap");
      layers.world_create_s += t.world_create_s / kTracedPublishes;
      layers.snapshot_write_s += t.snapshot_write_s / kTracedPublishes;
      layers.store_publish_s += t.store_publish_s / kTracedPublishes;
      report.op(t.version == last + 1, "publish did not advance the version");
      last = t.version;
    }
  }
  std::filesystem::remove_all(journal_dir);
  return layers;
}

}  // namespace

void run_pareto(const Args& args, Report& report) {
  const int lattice = args.tiny ? 8 : 32;
  if (args.record) {
    record_reference(lattice);
    return;
  }

  SetupTimes setup;
  const CityWorld built =
      set_up(lattice, kSetups, [](CityWorld c) { return c; }, setup);
  const core::WorldPtr world = built.world;
  const roadnet::GridCity& city = *built.city;
  const PublishTiming layers =
      args.trace ? trace_publishes(world, args, report) : PublishTiming{};
  core::WorldStore store(world);
  std::vector<double> publish_s;
  const core::PlannerOptions options;  // Exact pricing, 1.5 budget, LV
  const core::SunChasePlanner planner(world, options);
  std::vector<Trip> pool;
  for (std::uint64_t i = 0; i < kTripPool; ++i)
    pool.push_back(make_trip(i, city));

  // Warm-up on the pool's first trip.
  (void)plan_trip(planner, 0, pool[0]);

  std::vector<Outcome> outcomes;
  std::vector<double> latency_s, bare_s;
  // The untraced run's publishes, taken out of the plan loop's figures.
  double publish_wall_s = 0.0, publish_cpu_s = 0.0;
  SpanLog spans;
  PlanLayerCounts counts;
  std::uint64_t solar_calls = 0;

  // Untraced runs plan whole passes over the pool, so every run weighs
  // every trip alike; the traced run stops when its time is up.
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const auto time_up = [&] {
    return seconds_between(start, Clock::now()) >= args.seconds;
  };
  for (std::uint64_t pass = 0; pass == 0 || !time_up(); ++pass) {
    for (const std::uint64_t index : pass_order(args.seed, pass)) {
      const Trip& trip = pool[index];
      if (!args.trace) {
        const Clock::time_point t0 = Clock::now();
        outcomes.push_back(plan_trip(planner, index, trip));
        latency_s.push_back(seconds_between(t0, Clock::now()));
        const double publish_cpu0 = process_cpu_seconds();
        const Clock::time_point p0 = Clock::now();
        time_publishes(store, kPublishesPerPlan, report, publish_s);
        publish_wall_s += seconds_between(p0, Clock::now());
        publish_cpu_s += process_cpu_seconds() - publish_cpu0;
        continue;
      }
      if (!outcomes.empty() && time_up()) break;
      // The bare call (the untraced reference for the overhead ratio)
      // and the span-recorded one alternate which goes first, then the
      // layers under plan() run on the same query to split its time.
      const auto op = static_cast<std::uint32_t>(outcomes.size());
      const auto bare = [&] {
        const Clock::time_point t0 = Clock::now();
        (void)plan_trip(planner, index, trip);
        bare_s.push_back(seconds_between(t0, Clock::now()));
      };
      if (op % 2 == 0) bare();
      const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
      const Clock::time_point t0 = Clock::now();
      Outcome traced = plan_trip(planner, index, trip);
      const Clock::time_point t1 = Clock::now();
      solar_calls += counter_delta(
          before, obs::Registry::global().snapshot(), "solar.evaluate_calls");
      const int root = spans.add("planner.plan", op, -1, t0, t1);
      latency_s.push_back(seconds_between(t0, t1));
      if (op % 2 == 1) bare();
      if (traced.ok) {
        try {
          split_plan(spans, op, root, world, options, trip.origin,
                     trip.destination, trip.departure, counts);
        } catch (const std::exception& e) {
          traced.ok = false;
          traced.error = std::string("split: ") + e.what();
        }
      }
      outcomes.push_back(std::move(traced));
    }
  }
  const double elapsed =
      seconds_between(start, Clock::now()) - publish_wall_s;
  const double cpu = process_cpu_seconds() - cpu0 - publish_cpu_s;

  // Each trip's frontier is searched once and every plan of it checked.
  const auto reference = load_reference(args.reference_file);
  std::map<std::uint64_t, Expected> expected;
  std::size_t referenced = 0;
  for (const Outcome& o : outcomes) {
    auto it = expected.find(o.trip);
    if (it == expected.end()) {
      const auto ref = reference.find({lattice, o.trip});
      const std::string* print =
          ref == reference.end() ? nullptr : &ref->second;
      referenced += print != nullptr ? 1 : 0;
      it = expected
               .emplace(o.trip,
                        expect(world, options.mlc, pool[o.trip], print))
               .first;
    }
    std::string why;
    report.op(check_plan(o, it->second, why),
              "trip " + std::to_string(o.trip) + ": " + why);
  }
  if (referenced < expected.size())
    report.check_failed("a trip has no recorded frontier fingerprint");


  const double ops = static_cast<double>(latency_s.size());
  const TailPercentile tail = tail_percentile(latency_s);
  std::printf("pareto-large: %dx%d city, seed %" PRIu64 ", %zu plans of %zu "
              "pool trips in %.2f s; tail = p%g of %zu samples; %zu "
              "frontiers compared with the recording\n",
              lattice, lattice, args.seed, latency_s.size(), expected.size(),
              elapsed, tail.percentile, tail.samples, referenced);

  if (!args.trace) {
    const auto met = static_cast<double>(std::count_if(
        latency_s.begin(), latency_s.end(),
        [](double s) { return s <= kPlanLimitSeconds; }));
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("latency_p50_ms", median(latency_s) * 1e3, "ms");
    report.metric("latency_tail_ms", tail.value * 1e3, "ms");
    report.metric("throughput_ops", ops / elapsed, "1/s");
    report.metric("slo_rate_qps", met / elapsed, "1/s");
    report.metric("cpu_ms_per_op", cpu / ops * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("success_ratio",
                  1.0 - static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted()),
                  "ratio");
    report.metric("publish_latency_ms", interquartile_mean(publish_s) * 1e3,
                  "ms");
    return;
  }

  spans.print_table("pareto-large traced run (layer self times; the root "
                    "planner.plan self is the planner's own share)");
  spans.write(args.work_dir + "/spans-pareto-large-" +
              std::to_string(args.seed) + ".json");
  const double conservation = spans.over_attributed_share();
  std::printf("conservation: layer self times sum to the plan wall time "
              "with %.2f%% over-attributed (tolerance %.0f%%); mlc.search is "
              "%.1f%% of plan time\n",
              conservation * 100.0, kConservationTolerance * 100.0,
              100.0 * spans.total_s("mlc.search") / spans.root_total_s());
  if (conservation > kConservationTolerance)
    report.check_failed("traced layer self times do not add up to the plan");

  report_plan_layers(report, spans, counts);
  report.metric("solar.evaluate_calls_per_op",
                static_cast<double>(solar_calls) / ops, "calls/op");
  report.metric("world.create_ms", layers.world_create_s * 1e3, "ms");
  report.metric("world_store.publish_ms", layers.store_publish_s * 1e3, "ms");
  report.metric("snapshot.write_ms", layers.snapshot_write_s * 1e3, "ms");
  report.metric("setup.citygen_s", setup.citygen_s, "s");
  report.metric("setup.shading_s", setup.shading_s, "s");
  report.metric("setup.world_s", setup.world_s, "s");
  report.metric("obs.trace_overhead_ratio",
                median(bare_s) > 0 ? median(latency_s) / median(bare_s) : 0.0,
                "ratio");
  report.metric("trace.conservation_error", conservation, "ratio");
}

}  // namespace perfbench
