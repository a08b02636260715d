// Bucketed kd-tree over points (Bentley, CACM'75) — Figure 4 baseline.

#ifndef DBSA_SPATIAL_KDTREE_H_
#define DBSA_SPATIAL_KDTREE_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"

namespace dbsa::spatial {

/// Static median-split kd-tree with leaf buckets.
class KdTree {
 public:
  /// Builds over `points` (not owned; must outlive the tree).
  KdTree(const geom::Point* points, size_t n, int bucket_size = 32);

  /// Visits the ids of the points inside the query box.
  template <typename Fn>
  void VisitBox(const geom::Box& query, Fn&& fn) const {
    if (ids_.empty()) return;
    VisitRec(0, query, fn);
  }

  size_t MemoryBytes() const {
    return nodes_.size() * sizeof(Node) + ids_.size() * sizeof(uint32_t);
  }

 private:
  struct Node {
    // Leaf: right == 0; [first, first+count) indexes ids_.
    // Inner: split on `axis` at `split`; left child = node_idx + 1,
    // right child = `right`.
    double split = 0.0;
    uint32_t right = 0;
    uint32_t first = 0;
    uint32_t count = 0;
    uint8_t axis = 0;
  };

  uint32_t BuildRec(size_t lo, size_t hi, int axis);

  template <typename Fn>
  void VisitRec(uint32_t node_idx, const geom::Box& query, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    if (node.right == 0) {
      for (uint32_t i = 0; i < node.count; ++i) {
        const uint32_t id = ids_[node.first + i];
        if (query.Contains(points_[id])) fn(id);
      }
      return;
    }
    const double lo_q = node.axis == 0 ? query.min.x : query.min.y;
    const double hi_q = node.axis == 0 ? query.max.x : query.max.y;
    // <= because duplicates of the split value may sit in the left subtree.
    if (lo_q <= node.split) VisitRec(node_idx + 1, query, fn);
    if (hi_q >= node.split) VisitRec(node.right, query, fn);
  }

  const geom::Point* points_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> ids_;
  int bucket_size_;
};

}  // namespace dbsa::spatial

#endif  // DBSA_SPATIAL_KDTREE_H_
