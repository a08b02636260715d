// STR-packed R-tree (Leutenegger et al., ICDE'97) — one of the four
// spatial baselines in Figure 4, bulk-loaded by Sort-Tile-Recurse.

#ifndef DBSA_SPATIAL_STR_RTREE_H_
#define DBSA_SPATIAL_STR_RTREE_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"

namespace dbsa::spatial {

/// Static bulk-loaded R-tree with contiguous node storage.
class StrRTree {
 public:
  struct Item {
    geom::Box box;
    uint32_t id;
  };

  /// Builds from items (copied, reordered internally).
  static StrRTree Build(std::vector<Item> items, int leaf_capacity = 32);

  /// Visits the ids of all items whose box intersects the query box.
  template <typename Fn>
  void VisitBox(const geom::Box& query, Fn&& fn) const {
    if (items_.empty()) return;
    VisitRec(root_, query, fn);
  }

  size_t size() const { return items_.size(); }
  size_t MemoryBytes() const {
    return nodes_.size() * sizeof(Node) + items_.size() * sizeof(Item);
  }

 private:
  struct Node {
    geom::Box box;
    uint32_t first = 0;  ///< First child node (inner) or first item (leaf).
    uint32_t count = 0;
    bool leaf = true;
  };

  template <typename Fn>
  void VisitRec(uint32_t node_idx, const geom::Box& query, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    if (node.leaf) {
      for (uint32_t i = 0; i < node.count; ++i) {
        const Item& item = items_[node.first + i];
        if (item.box.Intersects(query)) fn(item.id);
      }
      return;
    }
    for (uint32_t i = 0; i < node.count; ++i) {
      const Node& child = nodes_[node.first + i];
      if (child.box.Intersects(query)) VisitRec(node.first + i, query, fn);
    }
  }

  std::vector<Item> items_;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
};

}  // namespace dbsa::spatial

#endif  // DBSA_SPATIAL_STR_RTREE_H_
