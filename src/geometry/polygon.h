// Convex polygon operations in the ground plane; the substrate for rotated
// bounding-box intersection (BEV IoU).
#ifndef FIXY_GEOMETRY_POLYGON_H_
#define FIXY_GEOMETRY_POLYGON_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "geometry/vec.h"

namespace fixy::geom {

/// Inside-test tolerance of the clipper: a point counts as inside a clip
/// edge a->b when (b - a).Cross(p - a) >= -kClipInsideTolerance, i.e. up to
/// kClipInsideTolerance / |b - a| beyond the edge line.
inline constexpr double kClipInsideTolerance = 1e-12;

/// Upper bound on the vertices Sutherland-Hodgman clipping can emit for an
/// n-gon clipped by an m-gon, in any floating-point outcome. One pass
/// emits (inside vertices) + (crossings); a crossing pair needs at least
/// one outside vertex between its crossings, so a pass turns n vertices
/// into at most n + n/2. (Exact convex inputs stay at n + m.)
constexpr size_t ClipCapacity(size_t subject_size, size_t clip_size) {
  size_t n = subject_size;
  for (size_t i = 0; i < clip_size; ++i) n += n / 2;
  return n;
}

/// Shoelace signed area of `vertices` (counter-clockwise is positive);
/// 0 for fewer than 3 vertices.
double PolygonSignedArea(std::span<const Vec2> vertices);

/// Sutherland-Hodgman clipping of the convex polygon `subject` by the
/// convex polygon `clip`, both counter-clockwise: the one clipping routine
/// behind ConvexPolygon::Intersect and BevIntersectionArea. It ping-pongs
/// between the two caller-owned scratch buffers, so a caller with stack
/// buffers clips without touching the heap. Returns the clipped vertices
/// as a view into one of the buffers (or into `subject` when `clip` has no
/// vertices), or nullopt when a pass's worst case (n + n/2 vertices) does
/// not fit the smaller buffer; buffers of ClipCapacity(subject.size(),
/// clip.size()) vertices always fit.
std::optional<std::span<const Vec2>> ClipConvexPolygon(
    std::span<const Vec2> subject, std::span<const Vec2> clip,
    std::span<Vec2> scratch_a, std::span<Vec2> scratch_b);

/// A convex polygon with vertices in counter-clockwise order. An empty
/// vertex list denotes the empty polygon.
class ConvexPolygon {
 public:
  ConvexPolygon() = default;
  explicit ConvexPolygon(std::vector<Vec2> vertices)
      : vertices_(std::move(vertices)) {}

  const std::vector<Vec2>& vertices() const { return vertices_; }
  bool empty() const { return vertices_.size() < 3; }

  /// Signed area via the shoelace formula; counter-clockwise polygons have
  /// positive area. Returns 0 for degenerate polygons.
  double SignedArea() const { return PolygonSignedArea(vertices_); }

  /// Absolute area.
  double Area() const { return std::abs(SignedArea()); }

  /// Intersection with another convex polygon (ClipConvexPolygon).
  /// Both polygons must be convex with counter-clockwise vertices.
  ConvexPolygon Intersect(const ConvexPolygon& clip) const;

 private:
  std::vector<Vec2> vertices_;
};

}  // namespace fixy::geom

#endif  // FIXY_GEOMETRY_POLYGON_H_
