#include "geometry/iou.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

namespace fixy::geom {

namespace {

// Scratch size for clipping one box footprint by another: the
// floating-point worst case, so the clip never runs out (exact geometry
// needs 8).
constexpr size_t kBoxClipCapacity = ClipCapacity(4, 4);

// Reject slack, in units of the clipper's inside band
// (kClipInsideTolerance / |edge|). A multiple of the band also covers the
// clipper extrapolating a crossing past its segment when a footprint edge
// crosses the band at a shallow angle (down to ~1/kBandFactor radians).
constexpr double kBandFactor = 1e3;
// Relative slack for rounding in the corners, the crossings and the
// distance itself (each a few ulps of the coordinates, ~1e-15).
constexpr double kRoundingFactor = 1e-12;

// True when the footprints' bounding circles (centre, half-diagonal) are
// apart by more than the slack: then every vertex Sutherland-Hodgman can
// produce for the pair lies outside the other footprint's inside band, and
// the clip would return exactly 0. A NaN or infinite distance compares
// false and falls through to the clip. See DESIGN.md §11.
bool FootprintsApart(const Box3d& a, const Box3d& b) {
  const double dx = a.center.x - b.center.x;
  const double dy = a.center.y - b.center.y;
  const double distance_sq = dx * dx + dy * dy;
  const double reach =
      0.5 * (std::sqrt(a.length * a.length + a.width * a.width) +
             std::sqrt(b.length * b.length + b.width * b.width));
  const double scale = std::abs(a.center.x) + std::abs(a.center.y) +
                       std::abs(b.center.x) + std::abs(b.center.y) + reach;
  const double band =
      kClipInsideTolerance / std::min({a.length, a.width, b.length, b.width});
  const double limit = reach + kBandFactor * band + kRoundingFactor * scale;
  return distance_sq > limit * limit &&
         distance_sq <= std::numeric_limits<double>::max();
}

}  // namespace

ConvexPolygon BoxBevPolygon(const Box3d& box) {
  const auto corners = box.BevCorners();
  return ConvexPolygon(std::vector<Vec2>(corners.begin(), corners.end()));
}

double BevIntersectionArea(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  if (FootprintsApart(a, b)) return 0.0;
  const std::array<Vec2, 4> subject = a.BevCorners();
  const std::array<Vec2, 4> clip = b.BevCorners();
  std::array<Vec2, kBoxClipCapacity> scratch_a;
  std::array<Vec2, kBoxClipCapacity> scratch_b;
  const std::optional<std::span<const Vec2>> clipped =
      ClipConvexPolygon(subject, clip, scratch_a, scratch_b);
  if (clipped->size() < 3) return 0.0;
  return std::abs(PolygonSignedArea(*clipped));
}

double BevIou(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  const double inter = BevIntersectionArea(a, b);
  const double uni = a.BevArea() + b.BevArea() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

double Iou3d(const Box3d& a, const Box3d& b) {
  if (!a.IsValid() || !b.IsValid()) return 0.0;
  const double bev_inter = BevIntersectionArea(a, b);
  const double z_overlap =
      std::max(0.0, std::min(a.ZMax(), b.ZMax()) - std::max(a.ZMin(), b.ZMin()));
  const double inter = bev_inter * z_overlap;
  const double uni = a.Volume() + b.Volume() - inter;
  if (uni <= 0.0) return 0.0;
  return std::clamp(inter / uni, 0.0, 1.0);
}

}  // namespace fixy::geom
