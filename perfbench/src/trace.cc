#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanContext& CurrentContext() {
  thread_local SpanContext context;
  return context;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t Covered(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [a, b] : intervals) {
    const int64_t s = std::max(a, cursor);
    const int64_t e = std::min(b, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans, int64_t from_ns) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  std::unordered_map<uint64_t, int64_t> query_start;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    if (s.parent == 0 && s.query != 0) query_start[s.query] = s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    if (s.query == 0) continue;
    const auto root = query_start.find(s.query);
    if (root == query_start.end() || root->second < from_ns) continue;
    const auto kids = children.find(s.id);
    const int64_t covered =
        kids == children.end() ? 0 : Covered(kids->second, s.start_ns, s.end_ns);
    SelfTime& t = out[s.name];
    t.ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    ++t.spans;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"query\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
