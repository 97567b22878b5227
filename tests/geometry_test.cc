// Tests for src/geometry: vectors, boxes, polygon clipping, IoU — golden
// values plus parameterized property sweeps (symmetry, bounds, identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "geometry/box.h"
#include "geometry/iou.h"
#include "geometry/polygon.h"
#include "geometry/vec.h"

namespace fixy::geom {
namespace {

constexpr double kEps = 1e-9;

// ------------------------------------------------------------------ Vec

TEST(VecTest, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(a / 2.0, Vec2(0.5, 1.0));
}

TEST(VecTest, DotAndCross) {
  const Vec2 x{1.0, 0.0};
  const Vec2 y{0.0, 1.0};
  EXPECT_DOUBLE_EQ(x.Dot(y), 0.0);
  EXPECT_DOUBLE_EQ(x.Cross(y), 1.0);
  EXPECT_DOUBLE_EQ(y.Cross(x), -1.0);
}

TEST(VecTest, NormAndSquaredNorm) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
}

TEST(VecTest, RotationQuarterTurn) {
  const Vec2 v{1.0, 0.0};
  const Vec2 r = v.Rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, kEps);
  EXPECT_NEAR(r.y, 1.0, kEps);
}

TEST(VecTest, RotationPreservesNorm) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Vec2 v{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const double angle = rng.Uniform(0, 2 * M_PI);
    EXPECT_NEAR(v.Rotated(angle).Norm(), v.Norm(), 1e-9);
  }
}

TEST(Vec3Test, BasicOps) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
  EXPECT_EQ(a.Xy(), Vec2(1, 2));
}

// ------------------------------------------------------------------ Box

TEST(BoxTest, VolumeAndArea) {
  const Box3d box({0, 0, 1}, 4.0, 2.0, 1.5, 0.0);
  EXPECT_DOUBLE_EQ(box.Volume(), 12.0);
  EXPECT_DOUBLE_EQ(box.BevArea(), 8.0);
}

TEST(BoxTest, Validity) {
  EXPECT_TRUE(Box3d({0, 0, 0}, 1, 1, 1, 0).IsValid());
  EXPECT_FALSE(Box3d({0, 0, 0}, 0, 1, 1, 0).IsValid());
  EXPECT_FALSE(Box3d().IsValid());
}

TEST(BoxTest, AxisAlignedCorners) {
  const Box3d box({0, 0, 0}, 4.0, 2.0, 1.0, 0.0);
  const auto corners = box.BevCorners();
  EXPECT_NEAR(corners[0].x, 2.0, kEps);
  EXPECT_NEAR(corners[0].y, 1.0, kEps);
  EXPECT_NEAR(corners[2].x, -2.0, kEps);
  EXPECT_NEAR(corners[2].y, -1.0, kEps);
}

TEST(BoxTest, RotatedCornersStayAtRadius) {
  const Box3d box({5, 5, 0}, 4.0, 2.0, 1.0, 0.7);
  const double radius = std::sqrt(4.0 + 1.0);  // half-diagonal
  for (const Vec2& corner : box.BevCorners()) {
    EXPECT_NEAR((corner - Vec2{5, 5}).Norm(), radius, kEps);
  }
}

TEST(BoxTest, ZExtent) {
  const Box3d box({0, 0, 2.0}, 1, 1, 3.0, 0);
  EXPECT_DOUBLE_EQ(box.ZMin(), 0.5);
  EXPECT_DOUBLE_EQ(box.ZMax(), 3.5);
}

TEST(BoxTest, BevContains) {
  const Box3d box({0, 0, 0}, 4.0, 2.0, 1.0, 0.0);
  EXPECT_TRUE(box.BevContains({0, 0}));
  EXPECT_TRUE(box.BevContains({1.9, 0.9}));
  EXPECT_FALSE(box.BevContains({2.1, 0}));
  EXPECT_FALSE(box.BevContains({0, 1.1}));
}

TEST(BoxTest, BevContainsRotated) {
  const Box3d box({0, 0, 0}, 4.0, 2.0, 1.0, M_PI / 2.0);
  // After a quarter turn, length lies along y.
  EXPECT_TRUE(box.BevContains({0, 1.9}));
  EXPECT_FALSE(box.BevContains({1.9, 0}));
}

TEST(BoxTest, CenterDistance) {
  const Box3d box({3, 4, 0}, 1, 1, 1, 0);
  EXPECT_DOUBLE_EQ(box.BevCenterDistance({0, 0}), 5.0);
}

// -------------------------------------------------------------- Polygon

ConvexPolygon UnitSquare() {
  return ConvexPolygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(PolygonTest, AreaOfSquare) {
  EXPECT_DOUBLE_EQ(UnitSquare().Area(), 1.0);
}

TEST(PolygonTest, SignedAreaPositiveForCcw) {
  EXPECT_GT(UnitSquare().SignedArea(), 0.0);
}

TEST(PolygonTest, EmptyAndDegenerate) {
  EXPECT_TRUE(ConvexPolygon().empty());
  EXPECT_TRUE(ConvexPolygon({{0, 0}, {1, 1}}).empty());
  EXPECT_DOUBLE_EQ(ConvexPolygon({{0, 0}, {1, 1}}).Area(), 0.0);
}

TEST(PolygonTest, SelfIntersectionIsIdentity) {
  const ConvexPolygon square = UnitSquare();
  EXPECT_NEAR(square.Intersect(square).Area(), 1.0, 1e-9);
}

TEST(PolygonTest, HalfOverlapSquares) {
  const ConvexPolygon a = UnitSquare();
  const ConvexPolygon b({{0.5, 0}, {1.5, 0}, {1.5, 1}, {0.5, 1}});
  EXPECT_NEAR(a.Intersect(b).Area(), 0.5, 1e-9);
}

TEST(PolygonTest, DisjointSquares) {
  const ConvexPolygon a = UnitSquare();
  const ConvexPolygon b({{2, 2}, {3, 2}, {3, 3}, {2, 3}});
  EXPECT_TRUE(a.Intersect(b).empty());
  EXPECT_DOUBLE_EQ(a.Intersect(b).Area(), 0.0);
}

TEST(PolygonTest, ContainedSquare) {
  const ConvexPolygon outer({{-2, -2}, {2, -2}, {2, 2}, {-2, 2}});
  const ConvexPolygon inner = UnitSquare();
  EXPECT_NEAR(outer.Intersect(inner).Area(), 1.0, 1e-9);
  EXPECT_NEAR(inner.Intersect(outer).Area(), 1.0, 1e-9);
}

TEST(PolygonTest, DiamondSquareIntersection) {
  // A unit-area diamond centered in a 2x2 square: fully contained.
  const ConvexPolygon square({{-1, -1}, {1, -1}, {1, 1}, {-1, 1}});
  const ConvexPolygon diamond(
      {{0.0, -0.5}, {0.5, 0.0}, {0.0, 0.5}, {-0.5, 0.0}});
  EXPECT_NEAR(square.Intersect(diamond).Area(), 0.5, 1e-9);
}

TEST(PolygonTest, IntersectionIsCommutativeInArea) {
  Rng rng(71);
  for (int i = 0; i < 50; ++i) {
    const Box3d a({rng.Uniform(-2, 2), rng.Uniform(-2, 2), 0},
                  rng.Uniform(0.5, 4), rng.Uniform(0.5, 3), 1.0,
                  rng.Uniform(0, 2 * M_PI));
    const Box3d b({rng.Uniform(-2, 2), rng.Uniform(-2, 2), 0},
                  rng.Uniform(0.5, 4), rng.Uniform(0.5, 3), 1.0,
                  rng.Uniform(0, 2 * M_PI));
    const double ab = BoxBevPolygon(a).Intersect(BoxBevPolygon(b)).Area();
    const double ba = BoxBevPolygon(b).Intersect(BoxBevPolygon(a)).Area();
    EXPECT_NEAR(ab, ba, 1e-8);
  }
}

// ------------------------------------------------------------------ IoU

TEST(IouTest, IdenticalBoxes) {
  const Box3d box({1, 2, 0.5}, 4, 2, 1, 0.3);
  EXPECT_NEAR(BevIou(box, box), 1.0, 1e-9);
  EXPECT_NEAR(Iou3d(box, box), 1.0, 1e-9);
}

TEST(IouTest, DisjointBoxes) {
  const Box3d a({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d b({10, 0, 0.5}, 2, 2, 1, 0);
  EXPECT_DOUBLE_EQ(BevIou(a, b), 0.0);
  EXPECT_DOUBLE_EQ(Iou3d(a, b), 0.0);
}

TEST(IouTest, HalfOverlapGolden) {
  // Two 2x2 squares offset by 1 along x: intersection 2, union 6.
  const Box3d a({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d b({1, 0, 0.5}, 2, 2, 1, 0);
  EXPECT_NEAR(BevIou(a, b), 2.0 / 6.0, 1e-9);
}

TEST(IouTest, RotationInvarianceOfIdenticalPairs) {
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const double yaw = rng.Uniform(0, 2 * M_PI);
    const Box3d a({0, 0, 0.5}, 4, 2, 1, yaw);
    EXPECT_NEAR(BevIou(a, a), 1.0, 1e-9);
  }
}

TEST(IouTest, Rotated45DegreeGolden) {
  // Unit square vs the same square rotated 45 degrees: intersection is a
  // regular octagon with area 2*(sqrt(2)-1) ~= 0.8284.
  const Box3d a({0, 0, 0.5}, 1, 1, 1, 0);
  const Box3d b({0, 0, 0.5}, 1, 1, 1, M_PI / 4.0);
  const double inter = 2.0 * (std::sqrt(2.0) - 1.0);
  const double uni = 2.0 - inter;
  EXPECT_NEAR(BevIou(a, b), inter / uni, 1e-6);
}

TEST(IouTest, DegenerateBoxGivesZero) {
  const Box3d degenerate({0, 0, 0}, 0, 2, 1, 0);
  const Box3d box({0, 0, 0.5}, 2, 2, 1, 0);
  EXPECT_DOUBLE_EQ(BevIou(degenerate, box), 0.0);
  EXPECT_DOUBLE_EQ(Iou3d(degenerate, box), 0.0);
}

TEST(IouTest, VerticalSeparationZerosIou3d) {
  const Box3d low({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d high({0, 0, 5.0}, 2, 2, 1, 0);
  EXPECT_NEAR(BevIou(low, high), 1.0, 1e-9);  // same footprint
  EXPECT_DOUBLE_EQ(Iou3d(low, high), 0.0);    // no vertical overlap
}

TEST(IouTest, PartialVerticalOverlap) {
  // Same footprint, half vertical overlap: inter = 4*0.5 = 2, union =
  // 4 + 4 - 2 = 6.
  const Box3d a({0, 0, 0.5}, 2, 2, 1, 0);
  const Box3d b({0, 0, 1.0}, 2, 2, 1, 0);
  EXPECT_NEAR(Iou3d(a, b), 2.0 / 6.0, 1e-9);
}

// Property sweep: IoU is symmetric, bounded, and 3D IoU never exceeds BEV
// IoU for gravity-aligned boxes of equal height range.
class IouPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IouPropertyTest, SymmetricAndBounded) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const Box3d a({rng.Uniform(-5, 5), rng.Uniform(-5, 5),
                   rng.Uniform(0, 2)},
                  rng.Uniform(0.3, 6), rng.Uniform(0.3, 3),
                  rng.Uniform(0.5, 3), rng.Uniform(0, 2 * M_PI));
    const Box3d b({rng.Uniform(-5, 5), rng.Uniform(-5, 5),
                   rng.Uniform(0, 2)},
                  rng.Uniform(0.3, 6), rng.Uniform(0.3, 3),
                  rng.Uniform(0.5, 3), rng.Uniform(0, 2 * M_PI));
    const double bev = BevIou(a, b);
    const double full = Iou3d(a, b);
    EXPECT_GE(bev, 0.0);
    EXPECT_LE(bev, 1.0);
    EXPECT_GE(full, 0.0);
    EXPECT_LE(full, 1.0);
    EXPECT_NEAR(bev, BevIou(b, a), 1e-8);
    EXPECT_NEAR(full, Iou3d(b, a), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IouPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: translating both boxes together leaves IoU unchanged.
class IouTranslationTest : public ::testing::TestWithParam<double> {};

TEST_P(IouTranslationTest, TranslationInvariant) {
  const double shift = GetParam();
  const Box3d a({0, 0, 0.5}, 4, 2, 1, 0.4);
  const Box3d b({1, 0.5, 0.5}, 3, 2, 1, 0.9);
  Box3d a2 = a;
  Box3d b2 = b;
  a2.center.x += shift;
  a2.center.y -= shift;
  b2.center.x += shift;
  b2.center.y -= shift;
  EXPECT_NEAR(BevIou(a, b), BevIou(a2, b2), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shifts, IouTranslationTest,
                         ::testing::Values(-100.0, -1.5, 0.0, 2.5, 1000.0));

// ------------------------------------------------- exact BEV fast path

// The vector-based Sutherland-Hodgman clipper BevIntersectionArea used
// before the bounding-circle reject and the heap-free clip, kept here only
// as the bit-exactness reference for them.
namespace reference {

bool Inside(const Vec2& p, const Vec2& a, const Vec2& b) {
  return (b - a).Cross(p - a) >= -1e-12;
}

Vec2 LineIntersection(const Vec2& p1, const Vec2& p2, const Vec2& a,
                      const Vec2& b) {
  const Vec2 r = p2 - p1;
  const Vec2 s = b - a;
  const double denom = r.Cross(s);
  if (std::abs(denom) < 1e-15) return (p1 + p2) * 0.5;
  const double t = (a - p1).Cross(s) / denom;
  return p1 + r * t;
}

double SignedArea(const std::vector<Vec2>& vertices) {
  if (vertices.size() < 3) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    sum += vertices[i].Cross(vertices[(i + 1) % vertices.size()]);
  }
  return sum / 2.0;
}

std::vector<Vec2> Intersect(const std::vector<Vec2>& subject,
                            const std::vector<Vec2>& clip) {
  if (subject.size() < 3 || clip.size() < 3) return {};
  std::vector<Vec2> output = subject;
  for (size_t i = 0; i < clip.size() && !output.empty(); ++i) {
    const Vec2& a = clip[i];
    const Vec2& b = clip[(i + 1) % clip.size()];
    std::vector<Vec2> input = std::move(output);
    output.clear();
    for (size_t j = 0; j < input.size(); ++j) {
      const Vec2& current = input[j];
      const Vec2& prev = input[(j + input.size() - 1) % input.size()];
      const bool current_inside = Inside(current, a, b);
      const bool prev_inside = Inside(prev, a, b);
      if (current_inside) {
        if (!prev_inside) {
          output.push_back(LineIntersection(prev, current, a, b));
        }
        output.push_back(current);
      } else if (prev_inside) {
        output.push_back(LineIntersection(prev, current, a, b));
      }
    }
  }
  if (output.size() < 3) return {};
  return output;
}

std::vector<Vec2> Corners(const Box3d& box) {
  const auto corners = box.BevCorners();
  return {corners.begin(), corners.end()};
}

double BevIntersectionArea(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  return std::abs(SignedArea(Intersect(Corners(a), Corners(b))));
}

double BevIou(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  const double inter = reference::BevIntersectionArea(a, b);
  const double uni = a.BevArea() + b.BevArea() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

double Iou3d(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  const double bev_inter = reference::BevIntersectionArea(a, b);
  const double z_overlap = std::max(
      0.0, std::min(a.ZMax(), b.ZMax()) - std::max(a.ZMin(), b.ZMin()));
  const double inter = bev_inter * z_overlap;
  const double uni = a.Volume() + b.Volume() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

}  // namespace reference

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Asserts bit equality of all three fast-path functions with the
// reference, in both argument orders. Returns whether the footprints
// overlap (reference area > 0 in either order).
bool ExpectBitIdentical(const Box3d& a, const Box3d& b) {
  bool overlap = false;
  for (const auto& [p, q] : {std::pair{a, b}, std::pair{b, a}}) {
    const double expected = reference::BevIntersectionArea(p, q);
    overlap = overlap || expected > 0.0;
    EXPECT_EQ(Bits(BevIntersectionArea(p, q)), Bits(expected))
        << BevIntersectionArea(p, q) << " vs " << expected;
    EXPECT_EQ(Bits(BevIou(p, q)), Bits(reference::BevIou(p, q)));
    EXPECT_EQ(Bits(Iou3d(p, q)), Bits(reference::Iou3d(p, q)));
  }
  return overlap;
}

// `box` moved by `offset` in the frame of `frame_yaw` (x along the
// heading).
Box3d Shifted(Box3d box, Vec2 offset, double frame_yaw) {
  const Vec2 world = offset.Rotated(frame_yaw);
  box.center.x += world.x;
  box.center.y += world.y;
  return box;
}

TEST(BevFastPathTest, BitIdenticalOnRandomDenseScenePairs) {
  // Dense-scene geometry: pedestrians to trucks, anywhere within a few
  // hundred metres of the origin; the partner box is a noisy copy (a
  // label and a detection of one object) or a neighbour up to 15 m away.
  Rng rng(20260);
  size_t overlapping = 0;
  constexpr int kPairs = 100000;
  for (int i = 0; i < kPairs; ++i) {
    const Box3d a({rng.Uniform(-300, 300), rng.Uniform(-300, 300),
                   rng.Uniform(0, 2)},
                  rng.Uniform(0.3, 12), rng.Uniform(0.3, 3),
                  rng.Uniform(0.5, 4), rng.Uniform(-M_PI, M_PI));
    Box3d b = a;
    if (rng.Bernoulli(0.3)) {
      b.center.x += rng.Normal(0, 0.3);
      b.center.y += rng.Normal(0, 0.3);
      b.length *= rng.Uniform(0.8, 1.2);
      b.width *= rng.Uniform(0.8, 1.2);
      b.yaw += rng.Normal(0, 0.1);
    } else {
      b.center.x += rng.Uniform(-15, 15);
      b.center.y += rng.Uniform(-15, 15);
      b.length = rng.Uniform(0.3, 12);
      b.width = rng.Uniform(0.3, 3);
      b.yaw = rng.Uniform(-M_PI, M_PI);
    }
    if (ExpectBitIdentical(a, b)) ++overlapping;
    if (HasFailure()) return;
  }
  // Both branches are exercised: the reject and the clip.
  EXPECT_GT(overlapping, kPairs / 5);
  EXPECT_LT(overlapping, kPairs * 4 / 5);
}

TEST(BevFastPathTest, BitIdenticalOnAdversarialPairs) {
  const std::vector<double> yaws = {0.0,         M_PI / 4,   M_PI / 2,
                                    -3 * M_PI / 4, 0.3,      1e-9,
                                    M_PI / 4 + 1e-12};
  const std::vector<Vec2> origins = {{0, 0}, {250.5, -180.25}};
  // Extents: unit squares, cars, 1e-4 m boxes and 40:1 slivers.
  const std::vector<std::pair<double, double>> shapes = {
      {1, 1}, {4.5, 1.9}, {1e-4, 1e-4}, {2e-4, 1e-4}, {20, 0.5}, {0.5, 20}};
  int cases = 0;
  for (const Vec2& origin : origins) {
    for (const double yaw : yaws) {
      for (const auto& [la, wa] : shapes) {
        for (const auto& [lb, wb] : shapes) {
          const Box3d a({origin.x, origin.y, 0.5}, la, wa, 1, yaw);
          const Box3d b0({origin.x, origin.y, 0.7}, lb, wb, 1.2, yaw);
          // Identical and nested footprints.
          ExpectBitIdentical(a, a);
          ExpectBitIdentical(a, b0);
          // Edge-touching (along either axis) and corner-touching, then
          // apart and overlapping by a few ulps of the offset.
          const std::vector<Vec2> touching = {
              {(la + lb) / 2, 0},
              {0, (wa + wb) / 2},
              {(la + lb) / 2, (wa + wb) / 2},
              {-(la + lb) / 2, (wa + wb) / 2}};
          for (const Vec2& offset : touching) {
            for (const double scale :
                 {1.0, 1 + 4e-16, 1 - 4e-16, 1 + 1e-12, 1 - 1e-12}) {
              ExpectBitIdentical(a, Shifted(b0, offset * scale, yaw));
              ++cases;
            }
          }
          // The same footprints turned by 45 degrees against each other.
          Box3d turned = b0;
          turned.yaw += M_PI / 4;
          for (const double dx : {0.0, 0.25, 0.5, 1.0}) {
            ExpectBitIdentical(a, Shifted(turned, Vec2(dx * (la + lb), 0), yaw));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_FALSE(HasFailure()) << cases << " cases";
}

TEST(BevFastPathTest, BitIdenticalAroundTheReachOfTheBoundingCircles) {
  // Corner-to-corner along a diagonal: the footprints touch exactly when
  // the centre distance equals the sum of the half-diagonals (the reach).
  // Sweep the distance from a few ulps inside to well past the reject's
  // slack.
  for (const auto& [l, w] : std::vector<std::pair<double, double>>{
           {1, 1}, {4.5, 1.9}, {1e-4, 1e-4}, {20, 0.5}}) {
    for (const double heading : {0.0, 0.7, M_PI / 4, 2.5}) {
      const double corner = std::atan2(w, l);
      const double reach = std::sqrt(l * l + w * w);  // two equal boxes
      const Box3d a({3.0, -2.0, 0.5}, l, w, 1, heading - corner);
      const Vec2 direction = Vec2(1, 0).Rotated(heading);
      double distance = reach;
      for (int k = 0; k < 8; ++k) {
        distance = std::nextafter(distance, 0.0);
      }
      std::vector<double> distances;
      for (int k = 0; k < 17; ++k) {
        distances.push_back(distance);
        distance = std::nextafter(distance, 2 * reach);
      }
      for (double gap = 1e-15; gap < 1e-3; gap *= 3.1) {
        distances.push_back(reach + gap * reach);
        distances.push_back(reach - gap * reach);
      }
      for (const double d : distances) {
        Box3d b = a;
        b.center.x += direction.x * d;
        b.center.y += direction.y * d;
        ExpectBitIdentical(a, b);
      }
    }
  }
}

TEST(BevFastPathTest, NonFiniteCentresMatchTheReference) {
  const Box3d a({0, 0, 0.5}, 2, 1, 1, 0.3);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1e300}) {
    Box3d b = a;
    b.center.x = bad;
    const double fast = BevIntersectionArea(a, b);
    const double expected = reference::BevIntersectionArea(a, b);
    EXPECT_TRUE(Bits(fast) == Bits(expected) ||
                (std::isnan(fast) && std::isnan(expected)))
        << bad << ": " << fast << " vs " << expected;
  }
}

TEST(BevFastPathTest, SliverFromAnExtrapolatedCrossingIsTheOneDivergence) {
  // The one input class where the reject and the old clipper disagree: an
  // edge of one footprint lies along the other's edge line, offset by
  // ~1e-12 m so that its two corners straddle the clipper's inside band.
  // LineIntersection then extrapolates the crossing far past the segment
  // (t >> 1), and the old clipper returns a sliver of area ~1e-12 for
  // footprints a metre apart. The fast path returns the true area, 0.
  const Box3d far({2.5, 0.5, 0.5}, 1, 1, 1, 0);
  Rng rng(3);
  int slivers = 0;
  for (int i = 0; i < 20000 && slivers < 3; ++i) {
    const Box3d near({0.5, 0.5 - 1e-12 * rng.Uniform(0.5, 1.5), 0.5}, 1, 1, 1,
                     rng.Uniform(-3e-12, 3e-12));
    const double old_area = reference::BevIntersectionArea(far, near);
    if (old_area == 0.0) {
      ExpectBitIdentical(near, far);
      continue;
    }
    ++slivers;
    EXPECT_LT(old_area, 1e-11);
    EXPECT_EQ(Bits(BevIntersectionArea(far, near)), Bits(0.0));
    EXPECT_EQ(Bits(BevIou(far, near)), Bits(0.0));
  }
  EXPECT_EQ(slivers, 3);
}

TEST(BevFastPathTest, ClipRoutineStaysWithinItsCapacity) {
  EXPECT_EQ(ClipCapacity(4, 4), 19u);
  const std::vector<Vec2> square = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const std::vector<Vec2> diamond = {
      {0.5, -0.2}, {1.2, 0.5}, {0.5, 1.2}, {-0.2, 0.5}};
  std::vector<Vec2> a(ClipCapacity(4, 4));
  std::vector<Vec2> b(ClipCapacity(4, 4));
  const auto clipped = ClipConvexPolygon(square, diamond, a, b);
  ASSERT_TRUE(clipped.has_value());
  EXPECT_EQ(clipped->size(), 8u);
  // Scratch that cannot hold a pass's worst case reports nullopt instead
  // of writing past its end.
  std::vector<Vec2> small_a(8);
  std::vector<Vec2> small_b(8);
  EXPECT_FALSE(ClipConvexPolygon(square, diamond, small_a, small_b).has_value());
  // ConvexPolygon::Intersect goes through the same routine.
  EXPECT_EQ(Bits(ConvexPolygon(square).Intersect(ConvexPolygon(diamond)).Area()),
            Bits(std::abs(reference::SignedArea(
                reference::Intersect(square, diamond)))));
}

}  // namespace
}  // namespace fixy::geom
