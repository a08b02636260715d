#include "spatial/kdtree.h"

#include <algorithm>
#include <numeric>

namespace dbsa::spatial {

KdTree::KdTree(const geom::Point* points, size_t n, int bucket_size)
    : points_(points), bucket_size_(std::max(bucket_size, 1)) {
  ids_.resize(n);
  std::iota(ids_.begin(), ids_.end(), 0u);
  if (n > 0) BuildRec(0, n, 0);
}

uint32_t KdTree::BuildRec(size_t lo, size_t hi, int axis) {
  const uint32_t node_idx = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  if (hi - lo <= static_cast<size_t>(bucket_size_)) {
    Node& node = nodes_[node_idx];
    node.right = 0;
    node.first = static_cast<uint32_t>(lo);
    node.count = static_cast<uint32_t>(hi - lo);
    return node_idx;
  }
  const size_t mid = lo + (hi - lo) / 2;
  std::nth_element(ids_.begin() + lo, ids_.begin() + mid, ids_.begin() + hi,
                   [&](uint32_t a, uint32_t b) {
                     return axis == 0 ? points_[a].x < points_[b].x
                                      : points_[a].y < points_[b].y;
                   });
  const uint32_t mid_id = ids_[mid];
  const double split = axis == 0 ? points_[mid_id].x : points_[mid_id].y;

  BuildRec(lo, mid, 1 - axis);  // Left child is node_idx + 1.
  const uint32_t right = BuildRec(mid, hi, 1 - axis);
  Node& node = nodes_[node_idx];
  node.split = split;
  node.right = right;
  node.axis = static_cast<uint8_t>(axis);
  return node_idx;
}

}  // namespace dbsa::spatial
