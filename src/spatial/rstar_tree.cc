#include "spatial/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace dbsa::spatial {

RStarTree::RStarTree(Options opts) : opts_(opts) {
  DBSA_CHECK(opts_.max_entries >= 4);
  DBSA_CHECK(opts_.min_entries >= 2 &&
             opts_.min_entries <= (opts_.max_entries + 1) / 2);
  nodes_.push_back(Node{/*leaf=*/true, {}});
}

geom::Box RStarTree::NodeBox(uint32_t node_idx) const {
  geom::Box box;
  for (const Entry& e : nodes_[node_idx].entries) box.Extend(e.box);
  return box;
}

uint32_t RStarTree::NewNode(bool leaf) {
  nodes_.push_back(Node{leaf, {}});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void RStarTree::Insert(const geom::Box& box, uint32_t id) {
  pending_.push_back(Entry{box, id});
  reinsert_used_ = false;
  while (!pending_.empty()) {
    const Entry e = pending_.back();
    pending_.pop_back();
    const uint32_t sibling = InsertRec(root_, e);
    if (sibling != kNone) {
      // Root split: grow the tree.
      const uint32_t new_root = NewNode(/*leaf=*/false);
      nodes_[new_root].entries.push_back(Entry{NodeBox(root_), root_});
      nodes_[new_root].entries.push_back(Entry{NodeBox(sibling), sibling});
      root_ = new_root;
      ++height_;
    }
  }
  ++size_;
}

uint32_t RStarTree::ChooseChild(const Node& node, const geom::Box& box) const {
  const size_t n = node.entries.size();
  DBSA_DCHECK(n > 0);
  // If children are leaves, minimize overlap enlargement (R* rule);
  // otherwise minimize area enlargement.
  const bool children_are_leaves = nodes_[node.entries[0].handle].leaf;

  // Precompute enlargements; they are the secondary criterion everywhere.
  std::vector<double> enlargement(n);
  for (size_t i = 0; i < n; ++i) {
    const geom::Box& eb = node.entries[i].box;
    enlargement[i] = eb.Union(box).Area() - eb.Area();
  }

  if (!children_are_leaves) {
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (enlargement[i] < enlargement[best] ||
          (enlargement[i] == enlargement[best] &&
           node.entries[i].box.Area() < node.entries[best].box.Area())) {
        best = i;
      }
    }
    return static_cast<uint32_t>(best);
  }

  // Leaf-parent level: minimize overlap enlargement. Per the R* paper's
  // recommendation for larger nodes, only the 8 entries with the least
  // area enlargement are examined.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const size_t k = std::min<size_t>(n, 8);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](size_t a, size_t b) { return enlargement[a] < enlargement[b]; });

  double best_primary = std::numeric_limits<double>::infinity();
  double best_secondary = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  size_t best = order[0];
  for (size_t oi = 0; oi < k; ++oi) {
    const size_t i = order[oi];
    const geom::Box& eb = node.entries[i].box;
    const geom::Box grown = eb.Union(box);
    double overlap_delta = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      overlap_delta += grown.Intersection(node.entries[j].box).Area() -
                       eb.Intersection(node.entries[j].box).Area();
    }
    const double area = eb.Area();
    if (overlap_delta < best_primary ||
        (overlap_delta == best_primary && enlargement[i] < best_secondary) ||
        (overlap_delta == best_primary && enlargement[i] == best_secondary &&
         area < best_area)) {
      best_primary = overlap_delta;
      best_secondary = enlargement[i];
      best_area = area;
      best = i;
    }
  }
  return static_cast<uint32_t>(best);
}

uint32_t RStarTree::InsertRec(uint32_t node_idx, const Entry& entry) {
  Node& node = nodes_[node_idx];
  if (node.leaf) {
    node.entries.push_back(entry);
    if (node.entries.size() > static_cast<size_t>(opts_.max_entries)) {
      return HandleOverflow(node_idx);
    }
    return kNone;
  }
  const uint32_t child_pos = ChooseChild(node, entry.box);
  const uint32_t child_idx = node.entries[child_pos].handle;
  const uint32_t sibling = InsertRec(child_idx, entry);
  // Vector may have reallocated during recursion; re-fetch.
  Node& node2 = nodes_[node_idx];
  node2.entries[child_pos].box = NodeBox(child_idx);
  if (sibling != kNone) {
    node2.entries.push_back(Entry{NodeBox(sibling), sibling});
    if (node2.entries.size() > static_cast<size_t>(opts_.max_entries)) {
      return SplitNode(node_idx);
    }
  }
  return kNone;
}

uint32_t RStarTree::HandleOverflow(uint32_t node_idx) {
  Node& node = nodes_[node_idx];
  if (opts_.forced_reinsert && !reinsert_used_ && node_idx != root_) {
    reinsert_used_ = true;
    // Remove the 30% of entries whose centers are farthest from the node
    // center and queue them for reinsertion.
    const geom::Box nb = NodeBox(node_idx);
    const geom::Point c = nb.Center();
    std::sort(node.entries.begin(), node.entries.end(),
              [&c](const Entry& a, const Entry& b) {
                return geom::Distance2(a.box.Center(), c) <
                       geom::Distance2(b.box.Center(), c);
              });
    const size_t keep =
        node.entries.size() - std::max<size_t>(1, node.entries.size() * 3 / 10);
    for (size_t i = keep; i < node.entries.size(); ++i) {
      pending_.push_back(node.entries[i]);
    }
    node.entries.resize(keep);
    return kNone;
  }
  return SplitNode(node_idx);
}

uint32_t RStarTree::SplitNode(uint32_t node_idx) {
  Node& node = nodes_[node_idx];
  std::vector<Entry> entries = std::move(node.entries);
  const size_t total = entries.size();
  const size_t m = static_cast<size_t>(opts_.min_entries);

  // R* split: for each axis and each sort order (by min, by max), consider
  // distributions (first k vs rest); pick the axis with minimum total
  // margin, then the distribution with minimum overlap (tie: min area).
  struct Candidate {
    int axis;
    bool by_max;
    size_t split_at;
  };
  double best_axis_margin = std::numeric_limits<double>::infinity();
  int best_axis = 0;
  bool best_axis_by_max = false;

  auto sort_entries = [&entries](int axis, bool by_max) {
    std::sort(entries.begin(), entries.end(), [axis, by_max](const Entry& a,
                                                             const Entry& b) {
      const double av = axis == 0 ? (by_max ? a.box.max.x : a.box.min.x)
                                  : (by_max ? a.box.max.y : a.box.min.y);
      const double bv = axis == 0 ? (by_max ? b.box.max.x : b.box.min.x)
                                  : (by_max ? b.box.max.y : b.box.min.y);
      return av < bv;
    });
  };

  for (int axis = 0; axis < 2; ++axis) {
    for (const bool by_max : {false, true}) {
      sort_entries(axis, by_max);
      double margin_sum = 0.0;
      for (size_t k = m; k + m <= total; ++k) {
        geom::Box left, right;
        for (size_t i = 0; i < k; ++i) left.Extend(entries[i].box);
        for (size_t i = k; i < total; ++i) right.Extend(entries[i].box);
        margin_sum += left.Margin() + right.Margin();
      }
      if (margin_sum < best_axis_margin) {
        best_axis_margin = margin_sum;
        best_axis = axis;
        best_axis_by_max = by_max;
      }
    }
  }

  sort_entries(best_axis, best_axis_by_max);
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  size_t best_k = m;
  // Prefix/suffix boxes for O(n) distribution evaluation.
  std::vector<geom::Box> prefix(total + 1), suffix(total + 1);
  for (size_t i = 0; i < total; ++i) {
    prefix[i + 1] = prefix[i].Union(entries[i].box);
  }
  for (size_t i = total; i-- > 0;) {
    suffix[i] = suffix[i + 1].Union(entries[i].box);
  }
  for (size_t k = m; k + m <= total; ++k) {
    const double overlap = prefix[k].Intersection(suffix[k]).Area();
    const double area = prefix[k].Area() + suffix[k].Area();
    if (overlap < best_overlap || (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  const uint32_t sibling_idx = NewNode(node.leaf);
  // NewNode may reallocate nodes_; re-fetch the node reference.
  Node& node2 = nodes_[node_idx];
  Node& sibling = nodes_[sibling_idx];
  node2.entries.assign(entries.begin(), entries.begin() + best_k);
  sibling.entries.assign(entries.begin() + best_k, entries.end());
  return sibling_idx;
}

size_t RStarTree::MemoryBytes() const {
  size_t bytes = 0;
  for (const Node& n : nodes_) {
    bytes += sizeof(Node) + n.entries.capacity() * sizeof(Entry);
  }
  return bytes;
}

}  // namespace dbsa::spatial
