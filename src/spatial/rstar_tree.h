// R*-tree (Beckmann et al., SIGMOD'90) — the paper's main exact baseline
// (it benchmarks the Boost.Geometry R*-tree). Implements ChooseSubtree
// with overlap-minimal leaf choice, margin-based split-axis selection,
// overlap-minimal split distribution, and forced reinsert at the leaf
// level.

#ifndef DBSA_SPATIAL_RSTAR_TREE_H_
#define DBSA_SPATIAL_RSTAR_TREE_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"

namespace dbsa::spatial {

/// Dynamic R*-tree over (box, id) entries. Points are boxes with
/// min == max.
class RStarTree {
 public:
  struct Options {
    int max_entries = 32;
    int min_entries = 13;         ///< ~40% of max, per the R* paper.
    bool forced_reinsert = true;  ///< Reinsert 30% on first leaf overflow.
  };

  RStarTree() : RStarTree(Options{}) {}
  explicit RStarTree(Options opts);

  void Insert(const geom::Box& box, uint32_t id);

  /// Visits ids of all entries whose box intersects the query box.
  template <typename Fn>
  void VisitBox(const geom::Box& query, Fn&& fn) const {
    if (size_ == 0) return;
    VisitRec(root_, query, fn);
  }

  size_t size() const { return size_; }
  int height() const { return height_; }
  size_t MemoryBytes() const;

 private:
  struct Entry {
    geom::Box box;
    uint32_t handle = 0;  ///< Child node index (inner) or entry id (leaf).
  };
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;
  };

  static constexpr uint32_t kNone = 0xffffffffu;

  geom::Box NodeBox(uint32_t node_idx) const;
  uint32_t NewNode(bool leaf);

  /// Returns the index of the new sibling if the node split, else kNone.
  uint32_t InsertRec(uint32_t node_idx, const Entry& entry);
  uint32_t ChooseChild(const Node& node, const geom::Box& box) const;

  /// R* overflow treatment: forced reinsert (leaves, once per top-level
  /// insertion) or split. Returns sibling index or kNone.
  uint32_t HandleOverflow(uint32_t node_idx);
  uint32_t SplitNode(uint32_t node_idx);

  template <typename Fn>
  void VisitRec(uint32_t node_idx, const geom::Box& query, Fn& fn) const {
    const Node& node = nodes_[node_idx];
    for (const Entry& e : node.entries) {
      if (!e.box.Intersects(query)) continue;
      if (node.leaf) {
        fn(e.handle);
      } else {
        VisitRec(e.handle, query, fn);
      }
    }
  }

  Options opts_;
  std::vector<Node> nodes_;
  std::vector<Entry> pending_;  ///< Forced-reinsert queue.
  uint32_t root_ = 0;
  size_t size_ = 0;
  int height_ = 1;
  bool reinsert_used_ = false;
};

}  // namespace dbsa::spatial

#endif  // DBSA_SPATIAL_RSTAR_TREE_H_
