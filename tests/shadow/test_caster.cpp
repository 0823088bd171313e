#include "sunchase/shadow/caster.h"

#include <gtest/gtest.h>

#include <numbers>

#include "test_helpers.h"

namespace sunchase::shadow {
namespace {

constexpr double kPi = std::numbers::pi;

Building square_tower(double height = 20.0) {
  return Building{geo::rectangle({0, 0}, {10, 10}), height};
}

TEST(BuildingShadow, SunDownNoShadow) {
  const geo::SunPosition night{-0.2, 0.0};
  EXPECT_TRUE(building_shadow(square_tower(), night).empty());
}

TEST(BuildingShadow, FortyFiveDegreeSouthSunShadowExtendsNorth) {
  const geo::Polygon shadow =
      building_shadow(square_tower(20.0), test::south_sun_45());
  ASSERT_GE(shadow.size(), 4u);
  const auto [lo, hi] = geo::bounding_box(shadow);
  // Footprint [0,10]x[0,10] plus a 20 m northward offset.
  EXPECT_NEAR(lo.y, 0.0, 1e-6);
  EXPECT_NEAR(hi.y, 30.0, 1e-6);
  EXPECT_NEAR(lo.x, 0.0, 1e-6);
  EXPECT_NEAR(hi.x, 10.0, 1e-6);
}

TEST(BuildingShadow, ShadowAreaGrowsAsSunDrops) {
  const geo::SunPosition high{1.2, kPi};
  const geo::SunPosition low{0.4, kPi};
  EXPECT_GT(geo::area(building_shadow(square_tower(), low)),
            geo::area(building_shadow(square_tower(), high)));
}

TEST(BuildingShadow, ContainsFootprintAndIsConvex) {
  const geo::Polygon shadow =
      building_shadow(square_tower(), test::south_sun_45());
  EXPECT_TRUE(geo::is_convex(shadow));
  EXPECT_TRUE(geo::contains(shadow, {5, 5}));    // footprint center
  EXPECT_TRUE(geo::contains(shadow, {5, 25}));   // projected roof area
  EXPECT_FALSE(geo::contains(shadow, {5, -5}));  // south of the building
}

TEST(BuildingShadow, MorningShadowWestAfternoonShadowEast) {
  // Eastern sun (azimuth 90 deg) -> shadow to the west (negative x).
  const geo::SunPosition morning{0.5, kPi / 2.0};
  const auto [mlo, mhi] = geo::bounding_box(building_shadow(
      square_tower(), morning));
  EXPECT_LT(mlo.x, -1.0);
  // Western sun -> shadow east.
  const geo::SunPosition afternoon{0.5, 3.0 * kPi / 2.0};
  const auto [alo, ahi] = geo::bounding_box(building_shadow(
      square_tower(), afternoon));
  EXPECT_GT(ahi.x, 11.0);
}

TEST(TreeShadow, DisplacedDiscNotRootedAtTrunk) {
  // Tree at origin, 10 m tall, 2 m canopy; 45-degree south sun puts the
  // canopy shadow ~8-10 m north, detached from the trunk.
  const Tree tree{{0, 0}, 2.0, 10.0};
  const geo::Polygon shadow = tree_shadow(tree, test::south_sun_45());
  ASSERT_FALSE(shadow.empty());
  EXPECT_FALSE(geo::contains(shadow, {0.0, 0.0}));
  EXPECT_TRUE(geo::contains(shadow, {0.0, 9.0}));
}

TEST(TreeShadow, SunDownNoShadow) {
  EXPECT_TRUE(tree_shadow(Tree{{0, 0}, 2.0, 8.0},
                          geo::SunPosition{-0.1, 0.0})
                  .empty());
}

TEST(TreeShadow, AreaComparableToCanopy) {
  const Tree tree{{0, 0}, 3.0, 9.0};
  const geo::Polygon shadow = tree_shadow(tree, test::south_sun_45());
  const double canopy_area = geo::area(geo::regular_polygon({0, 0}, 3.0, 8));
  // Shadow includes the canopy smear: at least the canopy's own area,
  // but bounded (not a building-style volume from the ground).
  EXPECT_GE(geo::area(shadow), canopy_area * 0.9);
  EXPECT_LE(geo::area(shadow), canopy_area * 4.0);
}

TEST(CastShadows, CountsAndBoundingBoxes) {
  Scene scene(test::montreal_projection(), 5.0);
  scene.add_building(square_tower());
  scene.add_building(Building{geo::rectangle({50, 0}, {60, 10}), 30.0});
  scene.add_tree(Tree{{100, 0}, 2.5, 9.0});
  const auto shadows = cast_shadows(scene, test::south_sun_45());
  ASSERT_EQ(shadows.size(), 3u);
  for (const ShadowPolygon& s : shadows) {
    const auto [lo, hi] = geo::bounding_box(s.outline);
    EXPECT_EQ(lo, s.bbox_min);
    EXPECT_EQ(hi, s.bbox_max);
  }
}

TEST(CastShadows, EmptyWhenSunDown) {
  Scene scene(test::montreal_projection(), 5.0);
  scene.add_building(square_tower());
  EXPECT_TRUE(cast_shadows(scene, geo::SunPosition{-0.3, 0.0}).empty());
}

// Property: at any daytime hour, every building shadow contains the
// building footprint's centroid and has at least the footprint's area.
class ShadowDayParam : public ::testing::TestWithParam<int> {};

TEST_P(ShadowDayParam, ShadowCoversFootprint) {
  const int hour = GetParam();
  const auto sun = geo::sun_position({45.4995, -73.5700}, geo::DayOfYear{196},
                                     TimeOfDay::hms(hour, 0));
  ASSERT_TRUE(sun.is_up()) << "sun below horizon";
  const Building b = square_tower(25.0);
  const geo::Polygon shadow = building_shadow(b, sun);
  EXPECT_TRUE(geo::contains(shadow, {5, 5}));
  EXPECT_GE(geo::area(shadow), geo::area(b.footprint) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Hours, ShadowDayParam,
                         ::testing::Values(7, 9, 11, 13, 15, 17, 19));

}  // namespace
}  // namespace sunchase::shadow
