#include "spatial/str_rtree.h"

#include <algorithm>
#include <cmath>

namespace dbsa::spatial {

StrRTree StrRTree::Build(std::vector<Item> items, int leaf_capacity) {
  StrRTree t;
  if (items.empty()) {
    t.nodes_.push_back(Node{geom::Box(), 0, 0, true});
    return t;
  }
  const size_t cap = static_cast<size_t>(std::max(leaf_capacity, 2));
  const size_t n = items.size();

  // Sort-Tile-Recurse: sort by x-center, cut into vertical slabs of
  // S * cap items, sort each slab by y-center, pack leaves of `cap`.
  const size_t num_leaves = (n + cap - 1) / cap;
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slab_items = slabs * cap;

  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.box.Center().x < b.box.Center().x;
  });
  for (size_t s = 0; s * slab_items < n; ++s) {
    const size_t lo = s * slab_items;
    const size_t hi = std::min(lo + slab_items, n);
    std::sort(items.begin() + lo, items.begin() + hi,
              [](const Item& a, const Item& b) {
                return a.box.Center().y < b.box.Center().y;
              });
  }
  t.items_ = std::move(items);

  // Pack leaves.
  std::vector<uint32_t> level;  // Node indices of the current level.
  for (size_t i = 0; i < n; i += cap) {
    Node leaf;
    leaf.leaf = true;
    leaf.first = static_cast<uint32_t>(i);
    leaf.count = static_cast<uint32_t>(std::min(cap, n - i));
    for (uint32_t j = 0; j < leaf.count; ++j) {
      leaf.box.Extend(t.items_[i + j].box);
    }
    level.push_back(static_cast<uint32_t>(t.nodes_.size()));
    t.nodes_.push_back(leaf);
  }

  // Pack upper levels until a single root remains. Children of one parent
  // must be contiguous in nodes_; each level is built contiguously, so
  // grouping consecutive runs works.
  while (level.size() > 1) {
    std::vector<uint32_t> next;
    for (size_t i = 0; i < level.size(); i += cap) {
      Node inner;
      inner.leaf = false;
      inner.first = level[i];
      inner.count = static_cast<uint32_t>(std::min(cap, level.size() - i));
      for (uint32_t j = 0; j < inner.count; ++j) {
        inner.box.Extend(t.nodes_[level[i] + j].box);
      }
      next.push_back(static_cast<uint32_t>(t.nodes_.size()));
      t.nodes_.push_back(inner);
    }
    level = std::move(next);
  }
  t.root_ = level[0];
  return t;
}

}  // namespace dbsa::spatial
