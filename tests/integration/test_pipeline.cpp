// End-to-end: synthetic city -> procedural scene -> exact & vision
// shading profiles -> solar input map -> SunChase planner. Asserts the
// invariants the paper's evaluation relies on.
#include <gtest/gtest.h>

#include <memory>

#include "sunchase/core/planner.h"
#include "sunchase/core/world.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/scenegen.h"
#include "sunchase/shadow/vision.h"
#include "sunchase/solar/input_map.h"

namespace sunchase {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    roadnet::GridCityOptions copt;
    copt.rows = 8;
    copt.cols = 8;
    city_ = new roadnet::GridCity(copt);
    proj_ = new geo::LocalProjection(copt.origin);
    scene_ = new shadow::Scene(
        generate_scene(city_->graph(), *proj_, shadow::SceneGenOptions{}));
    profile_ = new shadow::ShadingProfile(shadow::ShadingProfile::compute_exact(
        city_->graph(), *scene_, geo::DayOfYear{196}, TimeOfDay::hms(8, 0),
        TimeOfDay::hms(18, 0)));
    core::WorldInit init;
    init.graph = std::make_shared<const roadnet::RoadGraph>(city_->graph());
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
    init.shading = std::make_shared<const shadow::ShadingProfile>(*profile_);
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_lv_prototype()));
    world_ = new core::WorldPtr(core::World::create(std::move(init)));
  }

  static void TearDownTestSuite() {
    delete world_;
    delete profile_;
    delete scene_;
    delete proj_;
    delete city_;
  }

  static roadnet::GridCity* city_;
  static geo::LocalProjection* proj_;
  static shadow::Scene* scene_;
  static shadow::ShadingProfile* profile_;
  static core::WorldPtr* world_;
};

roadnet::GridCity* PipelineTest::city_ = nullptr;
geo::LocalProjection* PipelineTest::proj_ = nullptr;
shadow::Scene* PipelineTest::scene_ = nullptr;
shadow::ShadingProfile* PipelineTest::profile_ = nullptr;
core::WorldPtr* PipelineTest::world_ = nullptr;

TEST_F(PipelineTest, SceneShadesSomeStreetsButNotAll) {
  int shaded_edges = 0;
  const TimeOfDay morning = TimeOfDay::hms(9, 0);
  for (roadnet::EdgeId e = 0; e < city_->graph().edge_count(); ++e)
    if (profile_->shaded_fraction(e, morning) > 0.05) ++shaded_edges;
  EXPECT_GT(shaded_edges, 0);
  EXPECT_LT(shaded_edges, static_cast<int>(city_->graph().edge_count()));
}

TEST_F(PipelineTest, MiddayHasMoreSunThanMorning) {
  double morning_shade = 0.0, noon_shade = 0.0;
  for (roadnet::EdgeId e = 0; e < city_->graph().edge_count(); ++e) {
    morning_shade += profile_->shaded_fraction(e, TimeOfDay::hms(8, 30));
    noon_shade += profile_->shaded_fraction(e, TimeOfDay::hms(13, 0));
  }
  // High sun -> short shadows: the paper's "most of the road segments
  // were illuminated at noon".
  EXPECT_LT(noon_shade, morning_shade);
}

TEST_F(PipelineTest, PlannerWorksAcrossTheWholeDay) {
  const core::SunChasePlanner planner(*world_);
  for (const int hour : {9, 11, 13, 15, 17}) {
    const core::PlanResult plan = planner.plan(
        city_->node_at(1, 1), city_->node_at(6, 6), TimeOfDay::hms(hour, 0));
    ASSERT_FALSE(plan.candidates.empty()) << "hour " << hour;
    EXPECT_GT(plan.pareto_route_count, 0u);
    for (const auto& cand : plan.candidates) {
      EXPECT_TRUE(is_connected(cand.route.path, city_->graph()));
      EXPECT_GE(cand.metrics.energy_in.value(), 0.0);
      EXPECT_GT(cand.metrics.energy_out.value(), 0.0);
      EXPECT_LE(cand.metrics.solar_time.value(),
                cand.metrics.travel_time.value() + 1e-6);
    }
  }
}

TEST_F(PipelineTest, VisionProfileApproximatesExactProfile) {
  shadow::VisionOptions vopt;
  vopt.meters_per_px = 1.5;  // keep the render fast
  const shadow::VisionPipeline vision(city_->graph(), *scene_, vopt);
  const auto vision_profile = shadow::ShadingProfile::compute(
      city_->graph(), vision.make_estimator(geo::DayOfYear{196}),
      TimeOfDay::hms(10, 0), TimeOfDay::hms(11, 0));
  const auto exact_window = shadow::ShadingProfile::compute_exact(
      city_->graph(), *scene_, geo::DayOfYear{196}, TimeOfDay::hms(10, 0),
      TimeOfDay::hms(11, 0));
  EXPECT_LT(vision_profile.mean_absolute_difference(exact_window), 0.1);
}

TEST_F(PipelineTest, BetterSolarRouteHasMoreSolarTimePerMeterOrMoreInput) {
  // Corner (0,0) to (5,5) at 10:00: the shortest-time route runs
  // through more shade than a detour the Eq. 5 test accepts (on the
  // trip to the far corner (7,7) no candidate passes it).
  const core::SunChasePlanner planner(*world_);
  const core::PlanResult plan = planner.plan(
      city_->node_at(0, 0), city_->node_at(5, 5), TimeOfDay::hms(10, 0));
  ASSERT_TRUE(plan.has_better_solar());
  const auto& base = plan.candidates.front().metrics;
  const auto& better = plan.recommended().metrics;
  EXPECT_GT(better.energy_in.value(), base.energy_in.value());
}

}  // namespace
}  // namespace sunchase
