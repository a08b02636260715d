// The closed loop: kSessions dashboard sessions, each submitting its next
// query only after the previous reply arrived, for a fixed window. Every
// reply is checked against the oracle (after its latency is taken).
// Accuracy is averaged over the first Workload::accuracy_prefix stream
// positions of each session, so it is a pure function of the seed.

#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <functional>
#include <string>
#include <vector>

#include "check.h"
#include "workload.h"

namespace perfbench {

using ExecFn = std::function<dbsa::service::Result(const BenchQuery&, uint64_t query_id)>;

struct LoopStats {
  double window_s = 0.0;
  /// Replies inside the window, in completion order per session merged.
  std::vector<double> latency_ms;
  /// Per query kind, approximate-bound queries only.
  std::vector<double> kind_latency_ms[3];
  size_t attempted = 0;  ///< Every query sent, window or not.
  size_t failed = 0;     ///< Non-OK replies (shed included).
  size_t violations = 0; ///< OK replies the oracle rejected.
  std::vector<std::string> violation_log;
  double width_sum = 0.0;
  size_t width_n = 0;
  double fp_sum = 0.0;
  size_t fp_n = 0;

  double qps() const {
    return window_s > 0.0 ? static_cast<double>(latency_ms.size()) / window_s : 0.0;
  }
};

/// Runs the loop for `seconds`, then keeps each session going until it
/// has answered Workload::accuracy_prefix queries (or its stream ends).
LoopStats RunLoop(const Workload& workload, const ExactAnswers& exact, const ExecFn& exec,
                  double seconds);

/// Exact order statistic (util/stats.h Percentiles); 0 for no samples.
double Percentile(const std::vector<double>& samples, double p);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
