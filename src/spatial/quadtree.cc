#include "spatial/quadtree.h"

#include <algorithm>
#include <numeric>

namespace dbsa::spatial {

QuadTree::QuadTree(const geom::Point* points, size_t n, const geom::Box& universe,
                   int bucket_size, int max_depth)
    : points_(points),
      universe_(universe),
      bucket_size_(std::max(bucket_size, 1)),
      max_depth_(std::max(max_depth, 1)) {
  ids_.resize(n);
  std::iota(ids_.begin(), ids_.end(), 0u);
  nodes_.push_back(Node{});
  BuildRec(0, universe_, 0, n, 0);
}

void QuadTree::BuildRec(uint32_t node_idx, const geom::Box& box, size_t lo, size_t hi,
                        int depth) {
  if (hi - lo <= static_cast<size_t>(bucket_size_) || depth >= max_depth_) {
    Node& node = nodes_[node_idx];
    node.leaf = true;
    node.first = static_cast<uint32_t>(lo);
    node.count = static_cast<uint32_t>(hi - lo);
    return;
  }
  const geom::Point c = box.Center();
  // Partition ids into quadrants: q = (y >= cy) * 2 + (x >= cx).
  auto by_y = std::partition(ids_.begin() + lo, ids_.begin() + hi,
                             [&](uint32_t id) { return points_[id].y < c.y; });
  const size_t mid_y = static_cast<size_t>(by_y - ids_.begin());
  auto by_x_low = std::partition(ids_.begin() + lo, ids_.begin() + mid_y,
                                 [&](uint32_t id) { return points_[id].x < c.x; });
  auto by_x_high = std::partition(ids_.begin() + mid_y, ids_.begin() + hi,
                                  [&](uint32_t id) { return points_[id].x < c.x; });
  const size_t cut0 = static_cast<size_t>(by_x_low - ids_.begin());
  const size_t cut1 = static_cast<size_t>(by_x_high - ids_.begin());

  const size_t bounds[5] = {lo, cut0, mid_y, cut1, hi};
  const geom::Box quads[4] = {
      geom::Box(box.min, c),
      geom::Box({c.x, box.min.y}, {box.max.x, c.y}),
      geom::Box({box.min.x, c.y}, {c.x, box.max.y}),
      geom::Box(c, box.max),
  };

  uint32_t child_idx[4];
  for (int q = 0; q < 4; ++q) {
    child_idx[q] = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
  }
  {
    Node& node = nodes_[node_idx];
    node.leaf = false;
    for (int q = 0; q < 4; ++q) node.children[q] = child_idx[q];
  }
  for (int q = 0; q < 4; ++q) {
    BuildRec(child_idx[q], quads[q], bounds[q], bounds[q + 1], depth + 1);
  }
}

}  // namespace dbsa::spatial
