#include "loop.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using dbsa::service::Result;

double Percentile(const std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  dbsa::Percentiles pct;
  pct.AddAll(samples);
  return pct.Percentile(p);
}

namespace {

struct SessionStats {
  LoopStats stats;
  Clock::time_point last_in_window;
};

}  // namespace

LoopStats RunLoop(const Workload& workload, const ExactAnswers& exact, const ExecFn& exec,
                  double seconds) {
  const bool cycles = workload.kind != WorkloadKind::kExploreCold;
  std::vector<SessionStats> sessions(workload.streams.size());
  std::atomic<uint64_t> next_query_id{1};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));

  const auto session = [&](size_t s) {
    const std::vector<uint32_t>& stream = workload.streams[s];
    SessionStats& out = sessions[s];
    out.last_in_window = start;
    CheckScratch scratch;
    for (size_t i = 0;; ++i) {
      if (!cycles && i >= stream.size()) break;
      const Clock::time_point now = Clock::now();
      if (now >= deadline && i >= workload.accuracy_prefix) break;
      const BenchQuery& q = workload.table[stream[i % stream.size()]];
      const Clock::time_point t0 = Clock::now();
      const Result result = exec(q, next_query_id++);
      const Clock::time_point t1 = Clock::now();
      ++out.stats.attempted;
      const Verdict v = CheckResult(q, exact, result, workload.path, &scratch);
      if (!v.served) ++out.stats.failed;
      if (v.served && !v.correct) ++out.stats.violations;
      if (!v.correct && out.stats.violation_log.size() < 5) {
        out.stats.violation_log.push_back(v.violation);
      }
      if (t1 <= deadline) {
        const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        out.stats.latency_ms.push_back(ms);
        if (q.options.bound.kind != dbsa::query::BoundKind::kExact) {
          out.stats.kind_latency_ms[static_cast<size_t>(q.query.kind())].push_back(ms);
        }
        out.last_in_window = t1;
      }
      if (i < workload.accuracy_prefix) {
        if (v.rel_width >= 0.0) {
          out.stats.width_sum += v.rel_width;
          ++out.stats.width_n;
        }
        if (v.fp_ratio >= 0.0) {
          out.stats.fp_sum += v.fp_ratio;
          ++out.stats.fp_n;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions.size(); ++s) threads.emplace_back(session, s);
  for (std::thread& t : threads) t.join();

  LoopStats total;
  Clock::time_point window_end = start;
  for (SessionStats& s : sessions) {
    LoopStats& st = s.stats;
    total.latency_ms.insert(total.latency_ms.end(), st.latency_ms.begin(), st.latency_ms.end());
    for (size_t k = 0; k < 3; ++k) {
      total.kind_latency_ms[k].insert(total.kind_latency_ms[k].end(),
                                      st.kind_latency_ms[k].begin(),
                                      st.kind_latency_ms[k].end());
    }
    total.attempted += st.attempted;
    total.failed += st.failed;
    total.violations += st.violations;
    for (std::string& v : st.violation_log) total.violation_log.push_back(std::move(v));
    total.width_sum += st.width_sum;
    total.width_n += st.width_n;
    total.fp_sum += st.fp_sum;
    total.fp_n += st.fp_n;
    window_end = std::max(window_end, s.last_in_window);
  }
  // A session whose stream ran out before the deadline shortens the window.
  const bool exhausted = !cycles && window_end < deadline;
  total.window_s = std::chrono::duration<double>((exhausted ? window_end : deadline) - start).count();
  return total;
}

}  // namespace perfbench
