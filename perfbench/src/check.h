// Per-query correctness and accuracy against the oracle's exact answers.
// A served answer is correct when its status is OK, it ran on the
// workload's execution path, its achieved epsilon does not exceed the
// requested one, every exact count (and every exact per-region value)
// lies in the served range, and an approximate selection contains every
// exact id.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.h"
#include "service/query.h"
#include "workload.h"

namespace perfbench {

/// Sorted ids stored as LEB128 deltas (ids inside a polygon are spread
/// over the table, so a delta usually fits one byte).
class IdSet {
 public:
  IdSet() = default;
  explicit IdSet(const std::vector<uint32_t>& sorted);
  size_t size() const { return size_; }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    uint32_t id = 0;
    size_t pos = 0;
    for (size_t i = 0; i < size_; ++i) {
      uint32_t delta = 0;
      int shift = 0;
      uint8_t byte = 0;
      do {
        byte = bytes_[pos++];
        delta |= static_cast<uint32_t>(byte & 0x7f) << shift;
        shift += 7;
      } while (byte & 0x80);
      id += delta;
      fn(id);
    }
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
};

/// Exact answers of one workload, computed before the timed loop.
struct ExactAnswers {
  std::vector<uint64_t> count;  ///< Per Workload::polys entry.
  std::vector<IdSet> ids;       ///< Per polys entry; filled where a select asks it.
  RegionTotals regions;
};

ExactAnswers ComputeExact(const Oracle& oracle, const Workload& workload,
                          const dbsa::data::RegionSet& regions, size_t threads);

/// Outcome of checking one Result.
struct Verdict {
  bool served = true;     ///< Status OK.
  bool correct = true;    ///< Served and no oracle violation.
  std::string violation;  ///< First violation, for the log.
  /// Accuracy the user received (see README.md): the mean relative range
  /// width of a count or aggregate, and the false-positive share of an
  /// approximate select. Negative when not applicable.
  double rel_width = -1.0;
  double fp_ratio = -1.0;
};

/// Per-thread scratch for the superset test (one bit per point).
struct CheckScratch {
  std::vector<uint64_t> bits;
};

Verdict CheckResult(const BenchQuery& q, const ExactAnswers& exact,
                    const dbsa::service::Result& result,
                    dbsa::service::ExecPath expected_path, CheckScratch* scratch);

/// Self-test of the checker: a deliberately corrupted answer — the
/// served range shifted past the exact count, and a selection missing one
/// exact id — must be rejected. Returns an empty string when every
/// corruption is caught, else what slipped through.
std::string CheckerSelfTest(const Workload& workload, const ExactAnswers& exact);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
