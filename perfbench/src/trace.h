// Spans recorded by the benchmark around its calls into each layer:
// name, start, end, parent span and query id, kept in memory and written
// out when the run ends. Self time of a span is its duration minus the
// part of it that its children cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: a root.
  uint64_t query = 0;   ///< 0: not attributable to one query.
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  uint64_t NewId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  void Add(uint64_t id, uint64_t parent, uint64_t query, const char* name, int64_t start_ns,
           int64_t end_ns) {
    Add(Span{id, parent, query, name, start_ns, end_ns});
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// The query and parent span a thread is working for, so spans recorded
/// below a layer boundary the benchmark does not own (a pool worker, the
/// transport's Send) attach to the right query.
struct SpanContext {
  uint64_t query = 0;
  uint64_t parent = 0;
};
SpanContext& CurrentContext();

class ScopedContext {
 public:
  ScopedContext(uint64_t query, uint64_t parent) : saved_(CurrentContext()) {
    CurrentContext() = SpanContext{query, parent};
  }
  ~ScopedContext() { CurrentContext() = saved_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanContext saved_;
};

/// Per span name: summed self time (ms) over the spans of queries whose
/// root started at or after `from_ns`, and how many spans there were.
struct SelfTime {
  double ms = 0.0;
  size_t spans = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans, int64_t from_ns);

/// Writes one JSON object per span.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
