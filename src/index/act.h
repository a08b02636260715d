// Adaptive Cell Trie (Kipf et al., EDBT'20/ICDE'18, Section 3 of the
// paper): a radix trie over linearized hierarchical-raster cells. Larger
// cells live closer to the root, so coarse (interior) cells resolve in
// very few node hops; keys are implicit in the trie paths (prefix
// compression). A cell whose level falls inside a node's span is
// replicated across the slots it covers — ACT's memory-for-speed trade.

#ifndef DBSA_INDEX_ACT_H_
#define DBSA_INDEX_ACT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "raster/cell_id.h"

namespace dbsa::index {

/// One match returned by a lookup.
struct ActMatch {
  uint32_t value = 0;    ///< Caller-defined payload (e.g. polygon id).
  bool boundary = false; ///< Whether the matched cell was a boundary cell.
};

/// Radix trie over CellIds; multiple values may cover the same point (e.g.
/// conservative boundary cells of adjacent polygons).
class ActIndex {
 public:
  /// levels_per_node quadtree levels are consumed per trie node (fanout
  /// 4^levels_per_node). Must divide CellId::kMaxLevel.
  explicit ActIndex(int levels_per_node = 3);

  /// Inserts a cell with a payload. Cells of one payload must be disjoint;
  /// cells of different payloads may overlap.
  void Insert(const raster::CellId& cell, uint32_t value, bool boundary);

  /// Collects all cells covering the finest-level key (at most one per
  /// payload for disjoint per-payload cells).
  void Lookup(uint64_t leaf_key, std::vector<ActMatch>* out) const;

  /// First match only (fast path for tiling region sets where lookups hit
  /// at most one region).
  bool LookupFirst(uint64_t leaf_key, ActMatch* out) const;

  size_t NumNodes() const { return nodes_.size() / slots_per_node_; }
  size_t MemoryBytes() const {
    return nodes_.size() * sizeof(Slot) + values_.size() * sizeof(ValueEntry);
  }

 private:
  struct Slot {
    uint32_t child = 0;  ///< 0 = none, else node index + 1.
    uint32_t value = 0;  ///< 0 = none, else values_ index + 1 (list head).
  };
  struct ValueEntry {
    uint32_t payload;  ///< value | boundary flag in the MSB.
    uint32_t next;     ///< 0 = end, else values_ index + 1.
  };

  uint32_t EnsureChild(uint32_t node, uint32_t slot_idx);
  void PushValue(uint32_t node, uint32_t slot_idx, uint32_t value, bool boundary);

  int levels_per_node_;
  uint32_t slots_per_node_;
  // Flat node pool: node i occupies slots_ [i*slots_per_node_, ...).
  std::vector<Slot> nodes_;
  std::vector<ValueEntry> values_;
};

}  // namespace dbsa::index

#endif  // DBSA_INDEX_ACT_H_
