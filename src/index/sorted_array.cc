#include "index/sorted_array.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace dbsa::index {

SortedKeyArray SortedKeyArray::Build(std::vector<uint64_t> keys) {
  SortedKeyArray arr;
  std::sort(keys.begin(), keys.end());
  arr.keys_ = std::move(keys);
  return arr;
}

size_t SortedKeyArray::LowerBoundFrom(uint64_t key, size_t begin, size_t end) const {
  // Branch-reduced binary search over [begin, end).
  const uint64_t* base = keys_.data() + begin;
  size_t n = end - begin;
  while (n > 1) {
    const size_t half = n / 2;
    base = (base[half - 1] < key) ? base + half : base;
    n -= half;
  }
  size_t pos = static_cast<size_t>(base - keys_.data());
  if (n == 1 && pos < end && keys_[pos] < key) ++pos;
  return pos;
}

PrefixSumIndex PrefixSumIndex::Build(std::vector<uint64_t> keys,
                                     std::vector<double> values) {
  DBSA_CHECK(keys.size() == values.size());
  const size_t n = keys.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  // Tie-break equal keys by original row: the sorted order (and therefore
  // CollectIds output) becomes the canonical (key, row id) order, which
  // spatially-partitioned executions can reproduce exactly when merging
  // shard-local selections (core/sharded_state.h).
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  });

  std::vector<uint64_t> sorted_keys(n);
  PrefixSumIndex idx;
  idx.prefix_.resize(n + 1);
  idx.prefix_comp_.resize(n + 1);
  idx.prefix_[0] = 0.0;
  idx.prefix_comp_[0] = 0.0;
  idx.ids_.resize(n);
  // The prefix sums accumulate through error-free transformations: each
  // entry is a compensated pair, so range sums (pair differences) are
  // exact rather than rounded-at-every-prefix — see SumPairBetween.
  TwoDouble run;
  for (size_t i = 0; i < n; ++i) {
    sorted_keys[i] = keys[order[i]];
    idx.ids_[i] = static_cast<uint32_t>(order[i]);
    run = AddDouble(run, values[order[i]]);
    idx.prefix_[i + 1] = run.hi;
    idx.prefix_comp_[i + 1] = run.lo;
  }
  SortedKeyArray arr;
  arr = SortedKeyArray::Build(std::move(sorted_keys));  // Already sorted; cheap.
  idx.keys_ = std::move(arr);
  return idx;
}

PrefixSumIndex PrefixSumIndex::FromParts(std::vector<uint64_t> sorted_keys,
                                         std::vector<double> prefix,
                                         std::vector<double> prefix_comp,
                                         std::vector<uint32_t> ids) {
  const size_t n = sorted_keys.size();
  DBSA_CHECK(prefix.size() == n + 1);
  DBSA_CHECK(prefix_comp.size() == n + 1);
  DBSA_CHECK(ids.size() == n);
  DBSA_CHECK(std::is_sorted(sorted_keys.begin(), sorted_keys.end()));
  PrefixSumIndex idx;
  idx.keys_ = SortedKeyArray::Build(std::move(sorted_keys));
  idx.prefix_ = std::move(prefix);
  idx.prefix_comp_ = std::move(prefix_comp);
  idx.ids_ = std::move(ids);
  return idx;
}

}  // namespace dbsa::index
