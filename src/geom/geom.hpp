// Rectilinear geometry kernel for the SADP cut-process router.
//
// All coordinates are integer nanometres unless a function explicitly works
// in track units. Rectangles are half-open boxes [lo, hi) so that abutting
// rectangles do not overlap and areas/lengths compose additively.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace sadp {

/// Signed nanometre coordinate. 32 bits covers dies up to ~2 m.
using Nm = std::int32_t;
/// Signed track index.
using Track = std::int32_t;

/// Orientation of a wire fragment or routing layer.
enum class Orient : std::uint8_t { Horizontal, Vertical };

/// Returns the opposite orientation.
constexpr Orient flipped(Orient o) {
  return o == Orient::Horizontal ? Orient::Vertical : Orient::Horizontal;
}

const char* toString(Orient o);

/// 2-D integer point (nm or tracks depending on context).
struct Pt {
  Nm x = 0;
  Nm y = 0;

  friend constexpr bool operator==(const Pt&, const Pt&) = default;
  constexpr Pt operator+(const Pt& o) const { return {x + o.x, y + o.y}; }
  constexpr Pt operator-(const Pt& o) const { return {x - o.x, y - o.y}; }
};

std::ostream& operator<<(std::ostream& os, const Pt& p);

/// L1 (Manhattan) distance between two points.
constexpr std::int64_t manhattan(const Pt& a, const Pt& b) {
  const std::int64_t dx = std::int64_t(a.x) - b.x;
  const std::int64_t dy = std::int64_t(a.y) - b.y;
  return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
}

/// Closed-open axis-aligned box: contains points with
/// xlo <= x < xhi and ylo <= y < yhi. Empty iff xlo >= xhi or ylo >= yhi.
struct Rect {
  Nm xlo = 0;
  Nm ylo = 0;
  Nm xhi = 0;
  Nm yhi = 0;

  friend constexpr bool operator==(const Rect&, const Rect&) = default;

  constexpr Nm width() const { return xhi - xlo; }
  constexpr Nm height() const { return yhi - ylo; }
  constexpr bool empty() const { return xlo >= xhi || ylo >= yhi; }
  constexpr std::int64_t area() const {
    return empty() ? 0 : std::int64_t(width()) * height();
  }

  constexpr bool contains(const Pt& p) const {
    return p.x >= xlo && p.x < xhi && p.y >= ylo && p.y < yhi;
  }
  constexpr bool contains(const Rect& r) const {
    return !r.empty() && r.xlo >= xlo && r.xhi <= xhi && r.ylo >= ylo &&
           r.yhi <= yhi;
  }
  /// True if the interiors intersect (shared edges do not count).
  constexpr bool overlaps(const Rect& r) const {
    return !empty() && !r.empty() && xlo < r.xhi && r.xlo < xhi &&
           ylo < r.yhi && r.ylo < yhi;
  }

  /// Orientation of the longer extent; a square counts as horizontal.
  constexpr Orient orient() const {
    return height() > width() ? Orient::Vertical : Orient::Horizontal;
  }

  /// Expands every side outward by d (may be negative to shrink).
  constexpr Rect inflated(Nm d) const {
    return {xlo - d, ylo - d, xhi + d, yhi + d};
  }

  constexpr Rect intersect(const Rect& r) const {
    Rect out{std::max(xlo, r.xlo), std::max(ylo, r.ylo), std::min(xhi, r.xhi),
             std::min(yhi, r.yhi)};
    if (out.empty()) return Rect{};
    return out;
  }

  /// Smallest box containing both rects (empty rects are ignored).
  constexpr Rect unionWith(const Rect& r) const {
    if (empty()) return r;
    if (r.empty()) return *this;
    return {std::min(xlo, r.xlo), std::min(ylo, r.ylo), std::max(xhi, r.xhi),
            std::max(yhi, r.yhi)};
  }
};

std::ostream& operator<<(std::ostream& os, const Rect& r);
std::string toString(const Rect& r);

/// Gap between the projections of two rects on the x axis (0 if they
/// overlap or abut in x).
constexpr Nm xGap(const Rect& a, const Rect& b) {
  if (a.xhi >= b.xlo && b.xhi >= a.xlo) return 0;
  return a.xhi < b.xlo ? b.xlo - a.xhi : a.xlo - b.xhi;
}

/// Gap between the projections of two rects on the y axis.
constexpr Nm yGap(const Rect& a, const Rect& b) {
  if (a.yhi >= b.ylo && b.yhi >= a.ylo) return 0;
  return a.yhi < b.ylo ? b.ylo - a.yhi : a.ylo - b.yhi;
}

/// Euclidean distance (squared) between the closest points of two rects.
constexpr std::int64_t distSq(const Rect& a, const Rect& b) {
  const std::int64_t dx = xGap(a, b);
  const std::int64_t dy = yGap(a, b);
  return dx * dx + dy * dy;
}

/// Length of the overlap of the x projections (0 if disjoint).
constexpr Nm xOverlap(const Rect& a, const Rect& b) {
  return std::max<Nm>(0, std::min(a.xhi, b.xhi) - std::max(a.xlo, b.xlo));
}

/// Length of the overlap of the y projections (0 if disjoint).
constexpr Nm yOverlap(const Rect& a, const Rect& b) {
  return std::max<Nm>(0, std::min(a.yhi, b.yhi) - std::max(a.ylo, b.ylo));
}

/// Closed integer interval [lo, hi]; used for track ranges.
struct Interval {
  Track lo = 0;
  Track hi = -1;  // default-constructed interval is empty

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
  constexpr bool empty() const { return lo > hi; }
  constexpr Track length() const { return empty() ? 0 : hi - lo + 1; }
  constexpr bool contains(Track t) const { return t >= lo && t <= hi; }
  constexpr bool intersects(const Interval& o) const {
    return !empty() && !o.empty() && lo <= o.hi && o.lo <= hi;
  }
  /// Gap between two disjoint intervals; 0 if they touch or intersect.
  constexpr Track gap(const Interval& o) const {
    if (intersects(o)) return 0;
    return hi < o.lo ? o.lo - hi - 1 : lo - o.hi - 1;
  }
};

/// Merges touching/overlapping intervals in-place; returns sorted result.
std::vector<Interval> mergeIntervals(std::vector<Interval> v);

/// Decomposes a set of (possibly overlapping) rectangles into a canonical
/// set of disjoint maximal-horizontal slabs covering the same region.
std::vector<Rect> canonicalize(std::span<const Rect> rects);

/// Total area of a region given as arbitrary (possibly overlapping) rects.
std::int64_t regionArea(std::span<const Rect> rects);

/// True if point p lies in the union of rects.
bool regionContains(std::span<const Rect> rects, const Pt& p);

/// A spatial hash over rectangles, bucketed on a fixed pitch. Supports the
/// neighbor queries the scenario classifier needs (all rects within a
/// window). Rects are stored by value with a user payload id.
class SpatialHash {
 public:
  /// pitch: bucket edge in nm; must be > 0.
  explicit SpatialHash(Nm pitch) : pitch_(pitch) { assert(pitch > 0); }

  void insert(const Rect& r, std::uint32_t id);
  /// Removes one entry matching (r, id); returns false if absent.
  bool erase(const Rect& r, std::uint32_t id);
  /// Calls fn(rect, id) for each entry whose rect overlaps `window`,
  /// deduplicated.
  void query(const Rect& window,
             const std::function<void(const Rect&, std::uint32_t)>& fn) const;
  std::size_t size() const { return count_; }
  void clear();

 private:
  struct Entry {
    Rect r;
    std::uint32_t id;
  };
  using BucketKey = std::int64_t;
  BucketKey key(std::int64_t bx, std::int64_t by) const {
    return (bx << 32) ^ (by & 0xffffffffll);
  }
  void forEachBucket(const Rect& r,
                     const std::function<void(BucketKey)>& fn) const;

  Nm pitch_;
  std::size_t count_ = 0;
  std::unordered_map<BucketKey, std::vector<Entry>> buckets_;
};

}  // namespace sadp
