// World snapshots and the WorldStore publication point: construction
// validation, component sharing across derived versions, the one-cache-
// per-(version, vehicle) guarantee, and the MVCC hot-swap contract —
// a publish() during an 8-worker batch neither blocks workers nor
// changes results pinned to the old version. The WorldStore suites run
// under the CI ThreadSanitizer job.
#include "sunchase/core/world.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/core/batch_planner.h"
#include "sunchase/core/explain.h"
#include "sunchase/core/planner.h"
#include "sunchase/core/world_store.h"
#include "sunchase/obs/query_log.h"

namespace sunchase::core {
namespace {

WorldInit grid_init(const roadnet::GridCity& city) {
  return test::RoutingEnv::make_init(city.graph());
}

/// A shading profile that disagrees with hashed_shading everywhere, for
/// publishing a genuinely different world version.
std::shared_ptr<const shadow::ShadingProfile> inverted_shading(
    const roadnet::RoadGraph& graph) {
  return std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute(
          graph,
          [](roadnet::EdgeId e, TimeOfDay when) {
            const auto h = static_cast<std::uint64_t>(e) * 2654435761u +
                           static_cast<std::uint64_t>(when.slot_index()) * 97u;
            return 0.9 - static_cast<double>(h % 900) / 1000.0;
          },
          TimeOfDay::hms(8, 0), TimeOfDay::hms(18, 0)));
}

TEST(World, CreateRejectsMissingComponents) {
  const test::SquareGraph sq;
  const WorldInit good = test::RoutingEnv::make_init(sq.graph);

  WorldInit init = good;
  init.graph = nullptr;
  EXPECT_THROW((void)World::create(std::move(init)), InvalidArgument);

  init = good;
  init.traffic = nullptr;
  EXPECT_THROW((void)World::create(std::move(init)), InvalidArgument);

  init = good;
  init.shading = nullptr;
  EXPECT_THROW((void)World::create(std::move(init)), InvalidArgument);

  init = good;
  init.panel_power = nullptr;
  EXPECT_THROW((void)World::create(std::move(init)), InvalidArgument);

  init = good;
  init.vehicles.clear();
  EXPECT_THROW((void)World::create(std::move(init)), InvalidArgument);

  init = good;
  init.vehicles.push_back(nullptr);
  EXPECT_THROW((void)World::create(std::move(init)), InvalidArgument);
}

TEST(World, AccessorsExposeTheBundledComponents) {
  const test::SquareGraph sq;
  WorldInit init = test::RoutingEnv::make_init(sq.graph);
  const auto graph = init.graph;
  const WorldPtr world = World::create(std::move(init), 7);

  EXPECT_EQ(world->version(), 7u);
  EXPECT_EQ(&world->graph(), graph.get());
  EXPECT_EQ(&world->solar_map().graph(), graph.get());
  EXPECT_EQ(world->vehicle_count(), 2u);
  EXPECT_EQ(world->vehicle(test::RoutingEnv::kLv).name(), "Lv prototype");
  EXPECT_THROW((void)world->vehicle(2), InvalidArgument);
  EXPECT_THROW((void)world->slot_cache(2), InvalidArgument);
}

TEST(World, RecipeSharesComponentsAcrossDerivedVersions) {
  const test::SquareGraph sq;
  const WorldPtr base = World::create(test::RoutingEnv::make_init(sq.graph));

  WorldInit next = base->recipe();
  next.shading = inverted_shading(base->graph());
  const WorldPtr derived = World::create(std::move(next), 2);

  // The untouched components are the same allocations; only the
  // shading (and the solar map derived from it) differ.
  EXPECT_EQ(&derived->graph(), &base->graph());
  EXPECT_EQ(&derived->traffic(), &base->traffic());
  EXPECT_EQ(&derived->vehicle(0), &base->vehicle(0));
  EXPECT_NE(&derived->shading(), &base->shading());
}

TEST(World, SlotCacheIsOneInstancePerVehicleSharedByAllConsumers) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const WorldPtr world = World::create(grid_init(city));
  const SlotCostCache& cache = world->slot_cache(test::RoutingEnv::kLv);

  // Repeated lookups hand back the same instance, and a solver in
  // SlotQuantized mode points at exactly that instance.
  EXPECT_EQ(&world->slot_cache(test::RoutingEnv::kLv), &cache);
  MlcOptions slot_opt;
  slot_opt.pricing = PricingMode::SlotQuantized;
  const MultiLabelCorrecting solver(world, slot_opt);
  EXPECT_EQ(solver.cache(), &cache);
  // Each vehicle gets its own cache.
  EXPECT_NE(&world->slot_cache(test::RoutingEnv::kTesla), &cache);
}

TEST(World, SlotCacheColumnsFillOnceAcrossPlannerBatchAndExplainer) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const WorldPtr world = World::create(grid_init(city));
  const TimeOfDay dep = TimeOfDay::hms(10, 0);

  // 1. An 8-worker batch in SlotQuantized mode materializes whatever
  //    columns the queries touch — once, in whichever worker gets there
  //    first.
  BatchPlannerOptions batch_opt;
  batch_opt.workers = 8;
  batch_opt.mlc.pricing = PricingMode::SlotQuantized;
  batch_opt.mlc.max_time_factor = 1.5;
  const BatchPlanner batch(world, batch_opt);
  std::vector<BatchQuery> queries;
  for (int i = 0; i < 16; ++i)
    queries.push_back({city.node_at(0, i % 3), city.node_at(8, 5 + i % 4),
                       dep});
  const BatchResult result = batch.plan_all(queries);
  EXPECT_EQ(result.stats.failed, 0u);

  const SlotCostCache& cache = world->slot_cache(test::RoutingEnv::kLv);
  const std::size_t columns_after_batch = cache.filled_slots();
  EXPECT_GT(columns_after_batch, 0u);
  EXPECT_EQ(cache.bytes(), columns_after_batch * city.graph().edge_count() *
                               sizeof(SlotCostCache::Entry));

  // 2. A planner and an explainer on the same world re-read the batch's
  //    columns instead of filling their own: the fill count must not
  //    move for the same departure window.
  PlannerOptions plan_opt;
  plan_opt.mlc.pricing = PricingMode::SlotQuantized;
  const SunChasePlanner planner(world, plan_opt);
  const PlanResult plan =
      planner.plan(city.node_at(0, 0), city.node_at(8, 8), dep);
  ASSERT_FALSE(plan.candidates.empty());

  const RouteExplainer explainer(world);
  const RouteLedger ledger =
      explainer.explain(plan.candidates.front().route, dep,
                        PricingMode::SlotQuantized);
  EXPECT_FALSE(ledger.steps.empty());

  EXPECT_EQ(cache.filled_slots(), columns_after_batch);
}

TEST(WorldStore, PublishesMonotonicallyIncreasingVersions) {
  const test::SquareGraph sq;
  WorldStore store(test::RoutingEnv::make_init(sq.graph));
  EXPECT_EQ(store.version(), 1u);
  const WorldPtr v1 = store.current();

  WorldInit next = v1->recipe();
  next.shading = inverted_shading(v1->graph());
  const WorldPtr v2 = store.publish(std::move(next));
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(store.current(), v2);
  // The old pin is alive and untouched.
  EXPECT_EQ(v1->version(), 1u);

  // Adopting an existing snapshot continues its version line.
  WorldStore adopted(v2);
  EXPECT_EQ(adopted.version(), 2u);
  EXPECT_EQ(adopted.publish(v2->recipe())->version(), 3u);
}

TEST(WorldStore, RejectsNullAdoption) {
  EXPECT_THROW(WorldStore{WorldPtr{}}, InvalidArgument);
}

// ThreadSanitizer regression: readers hammer current() while a writer
// publishes new versions. No reader may block, tear, or observe a
// version going backwards.
TEST(WorldStore, ConcurrentReadersSeeMonotonicVersionsDuringPublishes) {
  const test::SquareGraph sq;
  WorldStore store(test::RoutingEnv::make_init(sq.graph));
  std::atomic<bool> stop{false};

  std::vector<std::future<void>> readers;
  for (int t = 0; t < 4; ++t) {
    readers.push_back(std::async(std::launch::async, [&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const WorldPtr pinned = store.current();
        ASSERT_GE(pinned->version(), last);
        last = pinned->version();
        // The pinned snapshot stays coherent while newer versions land.
        ASSERT_GT(pinned->graph().edge_count(), 0u);
        ASSERT_EQ(&pinned->solar_map().graph(), &pinned->graph());
      }
    }));
  }

  for (int i = 0; i < 32; ++i)
    (void)store.publish(store.current()->recipe());
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.get();
  EXPECT_EQ(store.version(), 33u);
}

/// Flattened (travel time, energy out, energy in, path edges) of every
/// successful query, for bit-exact result comparison.
std::vector<double> fingerprint(const BatchResult& batch) {
  std::vector<double> fp;
  for (const BatchQueryResult& q : batch.queries) {
    if (!q.ok()) continue;
    for (const ParetoRoute& r : q.result->routes) {
      fp.push_back(r.cost.travel_time.value());
      fp.push_back(r.cost.shaded_time.value());
      fp.push_back(r.cost.energy_out.value());
      for (const roadnet::EdgeId e : r.path.edges)
        fp.push_back(static_cast<double>(e));
    }
  }
  return fp;
}

TEST(WorldStore, PublishMidBatchLeavesPinnedResultsBitIdentical) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  WorldStore store(grid_init(city));

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 24; ++i)
    queries.push_back({city.node_at(i % 4, i % 3), city.node_at(7 + i % 3, 8),
                       TimeOfDay::hms(9 + i % 8, 0)});

  BatchPlannerOptions opt;
  opt.workers = 8;
  opt.mlc.max_time_factor = 1.4;
  const BatchPlanner pinned(store.current(), opt);

  // Baseline: the quiet run, nothing published.
  const std::vector<double> quiet = fingerprint(pinned.plan_all(queries));

  // Contended run: a writer publishes new versions (with genuinely
  // different shading) the whole time the batch is in flight.
  std::atomic<bool> stop{false};
  auto writer = std::async(std::launch::async, [&] {
    int published = 0;
    while (!stop.load(std::memory_order_relaxed) && published < 64) {
      WorldInit next = store.current()->recipe();
      next.shading = inverted_shading(store.current()->graph());
      (void)store.publish(std::move(next));
      ++published;
    }
    return published;
  });
  const std::vector<double> contended = fingerprint(pinned.plan_all(queries));
  stop.store(true, std::memory_order_relaxed);
  EXPECT_GT(writer.get(), 0);

  // The pinned planner never saw any of those versions.
  EXPECT_EQ(quiet, contended);
}

TEST(WorldStore, StoreModeBatchPicksUpThePublishedVersion) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  WorldStore store(grid_init(city));

  std::ostringstream sink;
  obs::QueryLog log(sink);
  BatchPlannerOptions opt;
  opt.workers = 2;
  opt.query_log = &log;
  const BatchPlanner live(store, opt);

  const std::vector<BatchQuery> queries = {
      {city.node_at(0, 0), city.node_at(5, 5), TimeOfDay::hms(10, 0)}};
  EXPECT_EQ(live.plan_all(queries).stats.failed, 0u);

  WorldInit next = store.current()->recipe();
  next.shading = inverted_shading(store.current()->graph());
  (void)store.publish(std::move(next));
  EXPECT_EQ(live.world()->version(), 2u);
  EXPECT_EQ(live.plan_all(queries).stats.failed, 0u);

  // The query log records which snapshot priced each query: version 1
  // before the publish, version 2 after.
  const std::string text = sink.str();
  EXPECT_NE(text.find("\"world.version\":1"), std::string::npos);
  EXPECT_NE(text.find("\"world.version\":2"), std::string::npos);
}

}  // namespace
}  // namespace sunchase::core
