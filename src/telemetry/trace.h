// Per-query distributed tracing. Each QueryService::Execute mints a
// TraceContext (128-bit trace id + 64-bit span id); every serving stage
// (admission, cache lookup, HR build, route, per-shard roundtrip,
// execute, gather, merge) records a TraceSpan with wall-clock duration
// into the query's QueryTrace. The trace id rides ScatterRequest (wire
// v3) so shard-server-side spans join the same trace, and surfaces in
// BoundReport so callers can correlate results with traces.
//
// Tracing is observe-only by construction: spans carry timings, never
// data, and nothing here feeds back into execution. QueryTrace is
// mutex-protected because shard fan-out records spans from pool threads;
// the lock is per-query (never shared across queries) and only taken
// when tracing is enabled.
//
// Like the rest of src/telemetry/, this header depends only on std and
// util/ (the annotated lock wrappers): core and service include it, it
// includes neither.

#ifndef DBSA_TELEMETRY_TRACE_H_
#define DBSA_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace dbsa::telemetry {

/// Identity of one traced query. trace_hi/trace_lo form the 128-bit
/// trace id (never zero for a minted context); span_id identifies the
/// root span. Zero-valued contexts mean "untraced" on the wire.
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

/// Mints a fresh context. Ids are process-unique and non-deterministic
/// across runs (seeded from the clock and thread identity) — they name
/// traces, they never influence execution.
TraceContext NewTraceContext();

/// 32 lowercase hex chars, e.g. "00c0ffee…"; "untraced" for the zero id.
std::string TraceIdHex(uint64_t hi, uint64_t lo);

/// One timed stage. `shard` is -1 for unscoped stages, >= 0 for
/// per-shard spans (e.g. shard_roundtrip). `correlation`, when nonzero,
/// is the wire correlation id of the in-flight request the span timed —
/// it joins a client span to the exact multiplexed frame that carried
/// it (grep the id across a connection dump or a hedged pair).
struct TraceSpan {
  std::string stage;
  int shard = -1;
  double start_ms = 0.0;     ///< Offset from the trace epoch.
  double duration_ms = 0.0;
  uint64_t correlation = 0;
};

/// Span collector for one query. Created in QueryService::RunQuery when
/// tracing is enabled and threaded through ExecHooks; stages append via
/// Record (directly or through SpanTimer).
class QueryTrace {
 public:
  explicit QueryTrace(TraceContext ctx)
      : ctx_(ctx), epoch_(std::chrono::steady_clock::now()) {}

  const TraceContext& ctx() const { return ctx_; }

  /// Milliseconds since this trace began.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void Record(const char* stage, double start_ms, double duration_ms,
              int shard = -1, uint64_t correlation = 0) {
    dbsa::MutexLock lock(mu_);
    spans_.push_back(TraceSpan{stage, shard, start_ms, duration_ms, correlation});
  }

  /// Snapshot of recorded spans, in recording order.
  std::vector<TraceSpan> spans() const {
    dbsa::MutexLock lock(mu_);
    return spans_;
  }

 private:
  const TraceContext ctx_;
  const std::chrono::steady_clock::time_point epoch_;
  /// Per-query (never shared across queries): shard fan-out records
  /// spans from pool and demux threads concurrently.
  mutable dbsa::Mutex mu_;
  std::vector<TraceSpan> spans_ DBSA_GUARDED_BY(mu_);
};

/// RAII span: times its scope and records on destruction. Null trace is
/// a no-op, so call sites don't branch.
class SpanTimer {
 public:
  SpanTimer(QueryTrace* trace, const char* stage, int shard = -1)
      : trace_(trace), stage_(stage), shard_(shard),
        start_ms_(trace ? trace->ElapsedMs() : 0.0) {}
  ~SpanTimer() {
    if (trace_ != nullptr) {
      trace_->Record(stage_, start_ms_, trace_->ElapsedMs() - start_ms_,
                     shard_);
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  QueryTrace* trace_;
  const char* stage_;
  int shard_;
  double start_ms_;
};

/// Renders the one-line slow-query record: trace id, query kind, bound,
/// achieved epsilon, status, total latency, then a `stage=duration`
/// span table sorted by start time. All inputs are plain strings/numbers
/// so this layer stays independent of service types.
std::string FormatSlowQueryLine(const TraceContext& ctx,
                                const std::string& kind,
                                const std::string& bound,
                                double epsilon_achieved,
                                const std::string& status, double total_ms,
                                std::vector<TraceSpan> spans);

}  // namespace dbsa::telemetry

#endif  // DBSA_TELEMETRY_TRACE_H_
