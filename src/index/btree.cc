#include "index/btree.h"

#include <algorithm>

namespace dbsa::index {

StaticBTree StaticBTree::Build(const std::vector<uint64_t>& sorted_keys) {
  StaticBTree t;
  t.num_keys_ = sorted_keys.size();
  t.leaf_keys_ = sorted_keys.data();
  if (sorted_keys.empty()) return t;

  // Each inner level stores, for every group of kFanout children, the
  // separator keys (the max key under each child). Build bottom-up.
  std::vector<std::vector<uint64_t>> levels;  // levels[0] = lowest inner level.
  {
    // Lowest inner level summarises leaf blocks of kFanout keys.
    std::vector<uint64_t> cur;
    for (size_t i = 0; i < sorted_keys.size(); i += kFanout) {
      const size_t end = std::min(i + kFanout, sorted_keys.size());
      cur.push_back(sorted_keys[end - 1]);
    }
    while (cur.size() > 1) {
      levels.push_back(cur);
      std::vector<uint64_t> up;
      for (size_t i = 0; i < cur.size(); i += kFanout) {
        const size_t end = std::min(i + kFanout, cur.size());
        up.push_back(cur[end - 1]);
      }
      cur = std::move(up);
    }
    levels.push_back(cur);  // Root (size 1), kept for uniformity.
  }

  // Lay out root-first.
  t.height_ = static_cast<int>(levels.size());
  for (int h = t.height_ - 1; h >= 0; --h) {
    t.level_offset_.push_back(t.inner_.size());
    t.level_size_.push_back(levels[static_cast<size_t>(h)].size());
    const auto& lv = levels[static_cast<size_t>(h)];
    t.inner_.insert(t.inner_.end(), lv.begin(), lv.end());
  }
  return t;
}

size_t StaticBTree::LowerBoundRank(uint64_t key) const {
  if (num_keys_ == 0) return 0;
  // Descend: at each level find the first block whose separator >= key.
  size_t block = 0;  // Index within the current level.
  for (size_t lv = 0; lv < level_offset_.size(); ++lv) {
    const uint64_t* base = inner_.data() + level_offset_[lv];
    const size_t begin = block * kFanout;
    if (begin >= level_size_[lv]) {
      block = level_size_[lv];  // Past the end.
      continue;
    }
    const size_t end = std::min(begin + kFanout, level_size_[lv]);
    size_t i = begin;
    while (i < end && base[i] < key) ++i;
    block = i;
  }
  // `block` is now the leaf block index.
  const size_t begin = block * kFanout;
  if (begin >= num_keys_) return num_keys_;
  const size_t end = std::min(begin + kFanout, num_keys_);
  const uint64_t* lo = leaf_keys_ + begin;
  const uint64_t* hi = leaf_keys_ + end;
  return static_cast<size_t>(std::lower_bound(lo, hi, key) - leaf_keys_);
}

}  // namespace dbsa::index
