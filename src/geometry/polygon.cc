#include "geometry/polygon.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fixy::geom {

namespace {

// True if `p` is on the interior side (left) of the directed edge a->b,
// within tolerance.
bool Inside(const Vec2& p, const Vec2& a, const Vec2& b) {
  return (b - a).Cross(p - a) >= -kClipInsideTolerance;
}

// Intersection point of segment p1->p2 with the infinite line through a->b.
Vec2 LineIntersection(const Vec2& p1, const Vec2& p2, const Vec2& a,
                      const Vec2& b) {
  const Vec2 r = p2 - p1;
  const Vec2 s = b - a;
  const double denom = r.Cross(s);
  if (std::abs(denom) < 1e-15) {
    // Parallel within tolerance; fall back to the segment midpoint, which is
    // the best degenerate answer and keeps areas bounded.
    return (p1 + p2) * 0.5;
  }
  const double t = (a - p1).Cross(s) / denom;
  return p1 + r * t;
}

}  // namespace

double PolygonSignedArea(std::span<const Vec2> vertices) {
  if (vertices.size() < 3) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Vec2& p = vertices[i];
    const Vec2& q = vertices[(i + 1) % vertices.size()];
    sum += p.Cross(q);
  }
  return sum / 2.0;
}

std::optional<std::span<const Vec2>> ClipConvexPolygon(
    std::span<const Vec2> subject, std::span<const Vec2> clip,
    std::span<Vec2> scratch_a, std::span<Vec2> scratch_b) {
  const size_t capacity = std::min(scratch_a.size(), scratch_b.size());
  std::span<const Vec2> input = subject;
  Vec2* output = scratch_a.data();
  Vec2* spare = scratch_b.data();
  for (size_t i = 0; i < clip.size() && !input.empty(); ++i) {
    // A pass emits at most n + n/2 vertices (see ClipCapacity).
    if (input.size() + input.size() / 2 > capacity) return std::nullopt;
    const Vec2& a = clip[i];
    const Vec2& b = clip[(i + 1) % clip.size()];
    size_t count = 0;
    const Vec2* prev = &input.back();
    bool prev_inside = Inside(*prev, a, b);
    for (const Vec2& current : input) {
      const bool current_inside = Inside(current, a, b);
      if (current_inside) {
        if (!prev_inside) {
          output[count++] = LineIntersection(*prev, current, a, b);
        }
        output[count++] = current;
      } else if (prev_inside) {
        output[count++] = LineIntersection(*prev, current, a, b);
      }
      prev = &current;
      prev_inside = current_inside;
    }
    input = std::span<const Vec2>(output, count);
    std::swap(output, spare);
  }
  return input;
}

ConvexPolygon ConvexPolygon::Intersect(const ConvexPolygon& clip) const {
  if (empty() || clip.empty()) return ConvexPolygon();
  // ClipCapacity grows exponentially in m; start from the n + m that
  // exact convex inputs need and grow until the per-pass bound fits.
  for (size_t capacity = vertices_.size() + clip.vertices().size();;
       capacity *= 2) {
    std::vector<Vec2> scratch_a(capacity);
    std::vector<Vec2> scratch_b(capacity);
    const std::optional<std::span<const Vec2>> output =
        ClipConvexPolygon(vertices_, clip.vertices(), scratch_a, scratch_b);
    if (!output.has_value()) continue;
    if (output->size() < 3) return ConvexPolygon();
    return ConvexPolygon(std::vector<Vec2>(output->begin(), output->end()));
  }
}

}  // namespace fixy::geom
