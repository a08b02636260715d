#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using dbsa::geom::Point;
using dbsa::geom::Polygon;
using dbsa::geom::Ring;

namespace {

bool RingHas(const Ring& ring, const Point& p) {
  bool inside = false;
  const size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (p.x < x) inside = !inside;
    }
  }
  return inside;
}

}  // namespace

bool OracleContains(const Polygon& poly, const Point& p) {
  if (!RingHas(poly.outer(), p)) return false;
  for (const Ring& hole : poly.holes()) {
    if (RingHas(hole, p)) return false;
  }
  return true;
}

Oracle::Oracle(const dbsa::data::PointSet& points, const dbsa::geom::Box& universe,
               int side)
    : universe_(universe), side_(side) {
  // Every point must fall inside its bucket for the centre rule to hold.
  universe_.Extend(points.Bounds());
  cell_w_ = universe_.Width() / side;
  cell_h_ = universe_.Height() / side;
  const size_t buckets = static_cast<size_t>(side) * static_cast<size_t>(side);
  std::vector<uint32_t> bucket_of(points.size());
  start_.assign(buckets + 1, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points.locs[i];
    const int bx = std::clamp(static_cast<int>((p.x - universe_.min.x) / cell_w_), 0, side - 1);
    const int by = std::clamp(static_cast<int>((p.y - universe_.min.y) / cell_h_), 0, side - 1);
    bucket_of[i] = static_cast<uint32_t>(by) * static_cast<uint32_t>(side) +
                   static_cast<uint32_t>(bx);
    ++start_[bucket_of[i] + 1];
  }
  for (size_t b = 0; b < buckets; ++b) start_[b + 1] += start_[b];
  std::vector<uint32_t> fill(start_.begin(), start_.end() - 1);
  rows_.resize(points.size());
  locs_.resize(points.size());
  fare_.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const uint32_t slot = fill[bucket_of[i]]++;
    rows_[slot] = static_cast<uint32_t>(i);
    locs_[slot] = points.locs[i];
    fare_[slot] = points.fare.empty() ? 0.0 : points.fare[i];
  }
}

template <typename Fn>
void Oracle::ForEachInside(const Polygon& poly, Fn&& fn) const {
  const dbsa::geom::Box& b = poly.bounds();
  const auto col = [&](double x) {
    return std::clamp(static_cast<int>(std::floor((x - universe_.min.x) / cell_w_)), 0,
                      side_ - 1);
  };
  const auto row = [&](double y) {
    return std::clamp(static_cast<int>(std::floor((y - universe_.min.y) / cell_h_)), 0,
                      side_ - 1);
  };
  const int x0 = col(b.min.x), x1 = col(b.max.x);
  const int y0 = row(b.min.y), y1 = row(b.max.y);
  const int w = x1 - x0 + 1;
  const int h = y1 - y0 + 1;
  // Buckets any edge passes through (supercover by column strips, padded
  // by a bucket fraction so an edge on a bucket border marks both sides).
  std::vector<uint8_t> touched(static_cast<size_t>(w) * static_cast<size_t>(h), 0);
  const double pad = 1e-6 * std::max(cell_w_, cell_h_);
  poly.ForEachEdge([&](const Point& a, const Point& c) {
    const Point& lo = a.x <= c.x ? a : c;
    const Point& hi = a.x <= c.x ? c : a;
    const int cx0 = col(lo.x - pad), cx1 = col(hi.x + pad);
    for (int cx = cx0; cx <= cx1; ++cx) {
      const double sx0 = std::max(lo.x, universe_.min.x + cx * cell_w_) - pad;
      const double sx1 = std::min(hi.x, universe_.min.x + (cx + 1) * cell_w_) + pad;
      double ya = lo.y, yb = hi.y;
      if (hi.x > lo.x) {
        const double slope = (hi.y - lo.y) / (hi.x - lo.x);
        ya = lo.y + (std::max(sx0, lo.x) - lo.x) * slope;
        yb = lo.y + (std::min(sx1, hi.x) - lo.x) * slope;
      }
      const int cy0 = row(std::min(ya, yb) - pad), cy1 = row(std::max(ya, yb) + pad);
      for (int cy = cy0; cy <= cy1; ++cy) {
        if (cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1) {
          touched[static_cast<size_t>(cy - y0) * static_cast<size_t>(w) +
                  static_cast<size_t>(cx - x0)] = 1;
        }
      }
    }
  });
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const size_t bucket = static_cast<size_t>(cy) * static_cast<size_t>(side_) +
                            static_cast<size_t>(cx);
      const uint32_t begin = start_[bucket], end = start_[bucket + 1];
      if (begin == end) continue;
      if (touched[static_cast<size_t>(cy - y0) * static_cast<size_t>(w) +
                  static_cast<size_t>(cx - x0)]) {
        for (uint32_t k = begin; k < end; ++k) {
          if (OracleContains(poly, locs_[k])) fn(k);
        }
      } else {
        const Point centre{universe_.min.x + (cx + 0.5) * cell_w_,
                           universe_.min.y + (cy + 0.5) * cell_h_};
        if (OracleContains(poly, centre)) {
          for (uint32_t k = begin; k < end; ++k) fn(k);
        }
      }
    }
  }
}

uint64_t Oracle::Count(const Polygon& poly) const {
  uint64_t n = 0;
  ForEachInside(poly, [&](uint32_t) { ++n; });
  return n;
}

std::vector<uint32_t> Oracle::Select(const Polygon& poly) const {
  std::vector<uint32_t> ids;
  ForEachInside(poly, [&](uint32_t k) { ids.push_back(rows_[k]); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

RegionTotals Oracle::Regions(const dbsa::data::RegionSet& regions) const {
  RegionTotals totals;
  totals.count.assign(regions.num_regions, 0.0);
  totals.fare_sum.assign(regions.num_regions, 0.0L);
  for (size_t i = 0; i < regions.polys.size(); ++i) {
    const uint32_t r = regions.region_of[i];
    ForEachInside(regions.polys[i], [&](uint32_t k) {
      totals.count[r] += 1.0;
      totals.fare_sum[r] += fare_[k];
    });
  }
  return totals;
}

}  // namespace perfbench
