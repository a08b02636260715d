// Bucket PR quadtree over points (Finkel & Bentley) — Figure 4 baseline,
// implemented after the learned-index comparison study the paper builds
// on (Pandey et al., AIDB@VLDB'20).

#ifndef DBSA_SPATIAL_QUADTREE_H_
#define DBSA_SPATIAL_QUADTREE_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"

namespace dbsa::spatial {

/// Point-region quadtree with leaf buckets.
class QuadTree {
 public:
  /// Builds over `points` (not owned; must outlive the tree).
  QuadTree(const geom::Point* points, size_t n, const geom::Box& universe,
           int bucket_size = 64, int max_depth = 24);

  /// Visits the ids (indices into the point array) inside the query box.
  template <typename Fn>
  void VisitBox(const geom::Box& query, Fn&& fn) const {
    VisitRec(0, universe_, query, fn);
  }

  size_t MemoryBytes() const {
    return nodes_.size() * sizeof(Node) + ids_.size() * sizeof(uint32_t);
  }

 private:
  struct Node {
    // Leaf: children[0] == 0 and [first, first+count) indexes ids_.
    // Inner: children hold node indices (0 = absent child is impossible
    // after split; all four are allocated).
    uint32_t children[4] = {0, 0, 0, 0};
    uint32_t first = 0;
    uint32_t count = 0;
    bool leaf = true;
  };

  void BuildRec(uint32_t node_idx, const geom::Box& box, size_t lo, size_t hi,
                int depth);

  template <typename Fn>
  void VisitRec(uint32_t node_idx, const geom::Box& box, const geom::Box& query,
                Fn& fn) const {
    const Node& node = nodes_[node_idx];
    if (node.leaf) {
      for (uint32_t i = 0; i < node.count; ++i) {
        const uint32_t id = ids_[node.first + i];
        if (query.Contains(points_[id])) fn(id);
      }
      return;
    }
    const geom::Point c = box.Center();
    const geom::Box quads[4] = {
        geom::Box(box.min, c),
        geom::Box({c.x, box.min.y}, {box.max.x, c.y}),
        geom::Box({box.min.x, c.y}, {c.x, box.max.y}),
        geom::Box(c, box.max),
    };
    for (int q = 0; q < 4; ++q) {
      if (quads[q].Intersects(query)) VisitRec(node.children[q], quads[q], query, fn);
    }
  }

  const geom::Point* points_;
  geom::Box universe_;
  int bucket_size_;
  int max_depth_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> ids_;  ///< Bucket storage (leaf-owned slices).
};

}  // namespace dbsa::spatial

#endif  // DBSA_SPATIAL_QUADTREE_H_
