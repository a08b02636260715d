// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload=<explore_cold|dashboard_warm|cluster_scatter>
//             --seed=N --seconds=S --trace=<0|1>
//             [--spans_out=PATH] [--record_out=PATH]
//             [--git_sha=SHA] [--source_digest=HEX]
//
// --trace=0 sets the system up kMinSetups..kMaxSetups times (setup_s is
// the median), runs the closed loop on the last set-up and prints the
// end-to-end metrics. --trace=1 sets up once, runs half the window on the
// QueryService and half on the benchmark's span-recording composition of
// the same layers (composer.h), and prints the per-layer metrics. Every
// reply of either run is checked against the oracle. The last line of
// stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "composer.h"
#include "core/sharded_state.h"
#include "loop.h"
#include "oracle.h"
#include "system.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace service = dbsa::service;
using service::QueryKind;

/// The end-to-end run sets up at least kMinSetups times, then again while
/// its set-ups so far took less than kSetupBudgetS, at most kMaxSetups
/// times; setup_s is the median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  std::string record_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") f->workload = value;
    else if (key == "seed") f->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "seconds") f->seconds = std::atof(value.c_str());
    else if (key == "trace") f->trace = std::atoi(value.c_str());
    else if (key == "spans_out") f->spans_out = value;
    else if (key == "record_out") f->record_out = value;
    else if (key == "git_sha") f->git_sha = value;
    else if (key == "source_digest") f->source_digest = value;
    else return false;
  }
  return f->seconds > 0.0 && (f->trace == 0 || f->trace == 1);
}

/// Ordered (name -> value, unit) list, printed as the result's metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void PrintTable(std::FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "  %-46s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

double Median(std::vector<double> v) { return Percentile(v, 50.0); }

double Mean(double sum, size_t n) { return n ? sum / static_cast<double>(n) : 0.0; }

/// Run provenance: what two records must share to be comparable.
std::string Provenance(const Flags& f, const Workload& w) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"nproc\": %u, "
      "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
      "\"points\": %zu, \"regions\": %zu, \"query_table\": %zu, \"distinct_polygons\": %zu, "
      "\"sessions\": %zu, \"pool_threads\": %zu, \"shards\": %zu, "
      "\"connections_per_shard\": 1, \"listener_handler_threads\": 1, "
      "\"approx_cache_budget_bytes\": %zu, \"shard_cache_budget_bytes\": %zu, "
      "\"path\": \"%s\", \"confirm_seed\": %llu}",
      WorkloadName(w.kind), static_cast<unsigned long long>(f.seed), f.seconds, f.trace,
      f.git_sha.c_str(), f.source_digest.c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE, kNumPoints, kNumRegions,
      w.table.size(), w.polys.size(), kSessions, kPoolThreads,
      w.path == service::ExecPath::kLocal ? size_t{1} : kShards,
      service::ServiceOptions{}.cache_budget_bytes, kShardCacheBytes,
      service::ExecPathName(w.path), static_cast<unsigned long long>(kConfirmSeed));
  return buf;
}

struct RunOutput {
  Metrics metrics;
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> notes;
};

void AddLoopOutcome(const LoopStats& loop, RunOutput* out) {
  out->attempted += loop.attempted;
  out->failed += loop.failed + loop.violations;
  if (loop.failed + loop.violations != 0) out->correct = false;
  for (const std::string& v : loop.violation_log) out->notes.push_back("violation: " + v);
}

/// The caches' fill against their budgets (working set vs cache size).
std::string WorkingSet(const System& sys) {
  const service::ApproxCache::Stats c = sys.service->cache_stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf), "approx cache %zu entries, %.2f of %.2f MiB", c.entries,
                static_cast<double>(c.bytes_used) / (1 << 20),
                static_cast<double>(c.budget_bytes) / (1 << 20));
  std::string out = buf;
  for (const auto& server : sys.servers) {
    const service::ShardServer::Stats st = server->stats();
    std::snprintf(buf, sizeof(buf), "; shard cache %zu entries, %.2f of %.2f MiB",
                  st.cache_entries, static_cast<double>(st.cache_bytes) / (1 << 20),
                  static_cast<double>(kShardCacheBytes) / (1 << 20));
    out += buf;
  }
  return out;
}

// ------------------------------------------------------------ end to end

RunOutput RunEndToEnd(const Workload& w, const Dataset& data, const ExactAnswers& exact,
                      const SnapshotImages& images, double seconds) {
  RunOutput out;
  std::vector<double> setups;
  std::unique_ptr<System> system;
  double spent_s = 0.0;
  while (setups.size() < kMinSetups ||
         (spent_s < kSetupBudgetS && setups.size() < kMaxSetups)) {
    system.reset();
    SetupTimes times;
    system = BuildSystem(w, data, &images, nullptr, &times);
    setups.push_back(times.total_s);
    spent_s += times.total_s;
  }
  out.notes.push_back("after set-up: " + WorkingSet(*system));
  const LoopStats loop = RunLoop(
      w, exact, [&](const BenchQuery& q, uint64_t) { return Serve(*system, q); }, seconds);
  AddLoopOutcome(loop, &out);
  out.notes.push_back("after the loop: " + WorkingSet(*system));
  system.reset();

  const double qps = loop.qps();
  Metrics& m = out.metrics;
  m.Set("qps", qps, "1/s");
  m.Set("p50_ms", Percentile(loop.latency_ms, 50.0), "ms");
  m.Set("p99_ms", Percentile(loop.latency_ms, 99.0), "ms");
  m.Set("agg_p50_ms", Percentile(loop.kind_latency_ms[0], 50.0), "ms");
  m.Set("count_p50_ms", Percentile(loop.kind_latency_ms[1], 50.0), "ms");
  m.Set("select_p50_ms", Percentile(loop.kind_latency_ms[2], 50.0), "ms");
  // Add-one smoothing keeps the rate positive on a clean run; the raw
  // counts are in the record.
  m.Set("error_rate",
        static_cast<double>(out.failed + 1) / static_cast<double>(out.attempted + 1), "ratio");
  m.Set("range_rel_width", Mean(loop.width_sum, loop.width_n), "ratio");
  m.Set("select_fp_ratio", Mean(loop.fp_sum, loop.fp_n), "ratio");
  m.Set("setup_s", Median(setups), "s");
  m.Set("mem_mb", PeakRssMiB(), "MiB");
  char note[256];
  std::snprintf(note, sizeof(note),
                "samples=%zu (aggregate %zu, count %zu, select %zu) attempted=%zu failed=%zu "
                "violations=%zu window_s=%.3f accuracy_samples=%zu/%zu setups=%zu",
                loop.latency_ms.size(), loop.kind_latency_ms[0].size(),
                loop.kind_latency_ms[1].size(), loop.kind_latency_ms[2].size(), loop.attempted,
                loop.failed, loop.violations, loop.window_s, loop.width_n, loop.fp_n,
                setups.size());
  out.notes.push_back(note);
  return out;
}

// ---------------------------------------------------------------- traced

struct JoinReplay {
  double probe_ms[3] = {};
  double merge_ms[3] = {};
  double searches[3] = {};
  size_t n[3] = {};
};

/// Re-runs the point-index probes of sampled queries on the states of the
/// workload's path (the base state, or each shard's slice with the cells
/// routed to it) and times them, plus the merge of the per-shard partials.
JoinReplay ReplayJoin(const System& sys, const Workload& w,
                      const std::vector<ReplaySample>& samples) {
  JoinReplay out;
  std::vector<const dbsa::core::EngineState*> slices;
  if (w.path == service::ExecPath::kSharded) {
    for (const auto& shard : sys.sharded->shards()) slices.push_back(shard.state.get());
  } else if (w.path == service::ExecPath::kTransport) {
    for (const auto& s : sys.slices) slices.push_back(s.get());
  }
  constexpr auto kStrategy = dbsa::join::SearchStrategy::kRadixSpline;
  for (const ReplaySample& sample : samples) {
    const size_t kind = static_cast<size_t>(sample.query->query.kind());
    for (const auto& hr : sample.hrs) {
      if (slices.empty()) {
        const int64_t t0 = NowNs();
        if (kind == static_cast<size_t>(QueryKind::kSelect)) {
          std::vector<uint32_t> ids;
          sys.base->point_index->SelectIds(*hr, kStrategy, &ids);
        } else {
          out.searches[kind] +=
              static_cast<double>(sys.base->point_index->QueryCells(*hr, kStrategy).searches);
        }
        out.probe_ms[kind] += static_cast<double>(NowNs() - t0) / 1e6;
        continue;
      }
      dbsa::join::CellAggregate merged;
      for (size_t s = 0; s < slices.size(); ++s) {
        if (slices[s] == nullptr || !slices[s]->point_index) continue;
        const std::vector<dbsa::raster::HrCell> cells =
            sys.sharded->PruneCellsForShard(s, hr->cells().data(), hr->cells().size());
        if (cells.empty()) continue;
        const int64_t t0 = NowNs();
        if (kind == static_cast<size_t>(QueryKind::kSelect)) {
          std::vector<uint32_t> ids;
          slices[s]->point_index->SelectIds(cells.data(), cells.size(), kStrategy, &ids);
          out.probe_ms[kind] += static_cast<double>(NowNs() - t0) / 1e6;
        } else {
          const dbsa::join::CellAggregate part =
              slices[s]->point_index->QueryCells(cells.data(), cells.size(), kStrategy);
          const int64_t t1 = NowNs();
          merged.Merge(part);
          out.probe_ms[kind] += static_cast<double>(t1 - t0) / 1e6;
          out.merge_ms[kind] += static_cast<double>(NowNs() - t1) / 1e6;
          out.searches[kind] += static_cast<double>(part.searches);
        }
      }
    }
    ++out.n[kind];
  }
  return out;
}

struct CodecReplay {
  double encode_req_ms = 0.0, decode_req_ms = 0.0, encode_resp_ms = 0.0, decode_resp_ms = 0.0;
  size_t reference_requests = 0, sampled_requests = 0;
  size_t encoded_bytes = 0;  ///< Keeps the re-encodes observable.
};

CodecReplay ReplayCodec(const std::vector<std::string>& requests,
                        const std::vector<std::string>& responses) {
  constexpr int kRepeats = 5;
  CodecReplay out;
  for (const std::string& frame : requests) {
    service::ScatterRequest req;
    if (!service::ScatterRequest::Decode(frame, &req).ok()) continue;
    ++out.sampled_requests;
    if (!req.has_cells) ++out.reference_requests;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kRepeats; ++i) (void)service::ScatterRequest::Decode(frame, &req);
    const int64_t t1 = NowNs();
    for (int i = 0; i < kRepeats; ++i) out.encoded_bytes += req.Encode().size();
    const int64_t t2 = NowNs();
    out.decode_req_ms += static_cast<double>(t1 - t0) / 1e6 / kRepeats;
    out.encode_req_ms += static_cast<double>(t2 - t1) / 1e6 / kRepeats;
  }
  size_t n_resp = 0;
  for (const std::string& frame : responses) {
    service::GatherPartial part;
    if (!service::GatherPartial::Decode(frame, &part).ok()) continue;
    ++n_resp;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kRepeats; ++i) (void)service::GatherPartial::Decode(frame, &part);
    const int64_t t1 = NowNs();
    for (int i = 0; i < kRepeats; ++i) out.encoded_bytes += part.Encode().size();
    const int64_t t2 = NowNs();
    out.decode_resp_ms += static_cast<double>(t1 - t0) / 1e6 / kRepeats;
    out.encode_resp_ms += static_cast<double>(t2 - t1) / 1e6 / kRepeats;
  }
  // Per-frame means.
  const double nq = std::max<size_t>(out.sampled_requests, 1);
  const double nr = std::max<size_t>(n_resp, 1);
  out.decode_req_ms /= nq;
  out.encode_req_ms /= nq;
  out.decode_resp_ms /= nr;
  out.encode_resp_ms /= nr;
  return out;
}

/// Sum and count of a registry histogram, read from outside.
std::pair<double, double> HistSumCount(const service::QueryService& svc, const std::string& name) {
  const dbsa::telemetry::HistogramData h = svc.registry()->GetHistogram(name)->Snapshot();
  return {h.sum_ms, static_cast<double>(h.count)};
}

/// The service's own account: mean (latency - execute stage) per query,
/// and the mean execute stage.
struct ServiceAccount {
  double latency_sum = 0.0, execute_sum = 0.0, queries = 0.0;
};

ServiceAccount ReadServiceAccount(const service::QueryService& svc) {
  ServiceAccount a;
  for (const QueryKind k : {QueryKind::kAggregate, QueryKind::kCount, QueryKind::kSelect}) {
    const auto [sum, count] = HistSumCount(
        svc, std::string("dbsa_query_latency_ms{kind=\"") + service::QueryKindName(k) + "\"}");
    a.latency_sum += sum;
    a.queries += count;
  }
  a.execute_sum = HistSumCount(svc, "dbsa_stage_ms{stage=\"execute\"}").first;
  return a;
}

RunOutput RunTraced(const Workload& w, const Dataset& data, const ExactAnswers& exact,
                    const SnapshotImages& images, double seconds, const std::string& spans_out) {
  RunOutput out;
  Tracer tracer;
  const HandlerWrap wrap = [&tracer](size_t, service::ShardListener::Handler inner) {
    return [&tracer, inner](const std::string& request) {
      const int64_t t0 = NowNs();
      std::string reply = inner(request);
      tracer.Add(tracer.NewId(), 0, 0, "service.shard_server", t0, NowNs());
      return reply;
    };
  };
  SetupTimes setup;
  std::unique_ptr<System> sys =
      BuildSystem(w, data, &images, w.path == service::ExecPath::kTransport ? wrap : nullptr,
                  &setup);

  // Phase A: the QueryService itself, with only its own instruments on.
  const ServiceAccount before = ReadServiceAccount(*sys->service);
  const LoopStats loop_a = RunLoop(
      w, exact, [&](const BenchQuery& q, uint64_t) { return Serve(*sys, q); }, seconds / 2);
  const ServiceAccount after = ReadServiceAccount(*sys->service);
  AddLoopOutcome(loop_a, &out);

  // Phase B: the span-recording composition of the same layers.
  Composer composer(*sys, w, &tracer);
  uint64_t warm_id = uint64_t{1} << 60;
  for (const uint32_t row : w.warm_rows) (void)composer.Execute(w.table[row], warm_id++);
  std::vector<service::ShardServer::Stats> servers_before;
  for (const auto& s : sys->servers) servers_before.push_back(s->stats());
  const service::SocketTransport::Stats socket_before =
      composer.socket() ? composer.socket()->stats() : service::SocketTransport::Stats{};
  const service::ApproxCache::Stats cache_before = composer.cache().stats();
  const uint64_t builds_before = composer.hr_builds().builds.load();
  const uint64_t cells_before = composer.hr_builds().cells.load();
  TracingTransport* tt = composer.transport();
  const uint64_t req_before = tt ? tt->requests.load() : 0;
  const uint64_t resp_before = tt ? tt->replies.load() : 0;
  const uint64_t req_bytes_before = tt ? tt->request_bytes.load() : 0;
  const uint64_t resp_bytes_before = tt ? tt->response_bytes.load() : 0;
  if (tt) {
    (void)tt->TakeRequestSamples();
    (void)tt->TakeResponseSamples();
  }
  const int64_t from = NowNs();
  composer.StartRecording(from);
  const LoopStats loop_b = RunLoop(
      w, exact, [&](const BenchQuery& q, uint64_t id) { return composer.Execute(q, id); },
      seconds / 2);
  const int64_t until = NowNs();
  AddLoopOutcome(loop_b, &out);

  const std::vector<QueryRecord> records = composer.records();
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, SelfTime> self = SelfTimes(spans, from);
  const double q_n = std::max<double>(1.0, static_cast<double>(records.size()));
  const auto self_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.ms;
  };
  const auto self_spans = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second.spans);
  };
  double server_ms = 0.0, merge_span_ms = 0.0;
  for (const Span& s : spans) {
    if (s.start_ns < from || s.start_ns > until) continue;
    if (s.name == "service.shard_server") server_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.name == "program.merge") merge_span_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  // Per-record means.
  double cells = 0, eps_sum = 0, eps_max = 0, pi_share = 0, probed = 0, prune = 0, ids = 0,
         pip = 0;
  size_t n_approx = 0, n_exact = 0, n_select = 0, n_route = 0;
  size_t kind_n[3] = {};
  for (const QueryRecord& r : records) {
    if (r.exact) {
      ++n_exact;
      pip += static_cast<double>(r.stats.pip_tests);
      continue;
    }
    ++n_approx;
    ++kind_n[static_cast<size_t>(r.kind)];
    cells += static_cast<double>(r.stats.query_cells);
    const double ratio = r.requested_epsilon > 0 ? r.stats.achieved_epsilon / r.requested_epsilon : 0.0;
    eps_sum += ratio;
    eps_max = std::max(eps_max, ratio);
    if (r.stats.plan == dbsa::query::PlanKind::kPointIndexJoin) pi_share += 1.0;
    probed += static_cast<double>(r.stats.shards_probed);
    if (r.kind == QueryKind::kSelect) {
      ++n_select;
      ids += static_cast<double>(r.select_ids);
    }
    if (r.kind != QueryKind::kAggregate && w.path != service::ExecPath::kLocal) {
      ++n_route;
      prune += 1.0 - static_cast<double>(r.stats.shards_probed) / static_cast<double>(kShards);
    }
  }
  const JoinReplay join = ReplayJoin(*sys, w, composer.replay_samples());
  double probe_per_query = 0.0, merge_per_query = 0.0, searches_per_query = 0.0;
  for (size_t k = 0; k < 3; ++k) {
    if (join.n[k] == 0 || n_approx == 0) continue;
    const double share = static_cast<double>(kind_n[k]) / q_n;
    probe_per_query += share * join.probe_ms[k] / static_cast<double>(join.n[k]);
    merge_per_query += share * join.merge_ms[k] / static_cast<double>(join.n[k]);
    if (k != static_cast<size_t>(QueryKind::kSelect)) {
      searches_per_query += share * join.searches[k] / static_cast<double>(join.n[k]);
    }
  }
  const service::ApproxCache::Stats cache_after = composer.cache().stats();
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses = static_cast<double>(cache_after.misses - cache_before.misses);
  const uint64_t builds = composer.hr_builds().builds.load() - builds_before;
  const uint64_t built_cells = composer.hr_builds().cells.load() - cells_before;

  double ref_hits = 0, ref_misses = 0;
  for (size_t s = 0; s < sys->servers.size(); ++s) {
    const service::ShardServer::Stats now = sys->servers[s]->stats();
    ref_hits += static_cast<double>(now.cache_hits - servers_before[s].cache_hits);
    ref_misses += static_cast<double>(now.cache_misses - servers_before[s].cache_misses);
  }
  const service::SocketTransport::Stats socket_after =
      composer.socket() ? composer.socket()->stats() : service::SocketTransport::Stats{};
  CodecReplay codec;
  double requests = 0, replies = 0, req_bytes = 0, resp_bytes = 0;
  if (tt) {
    requests = static_cast<double>(tt->requests.load() - req_before);
    replies = static_cast<double>(tt->replies.load() - resp_before);
    req_bytes = static_cast<double>(tt->request_bytes.load() - req_bytes_before);
    resp_bytes = static_cast<double>(tt->response_bytes.load() - resp_bytes_before);
    codec = ReplayCodec(tt->TakeRequestSamples(), tt->TakeResponseSamples());
  }
  const double roundtrip = self_ms("service.socket") / q_n;
  const double handle = server_ms / q_n;
  const double svc_queries = after.queries - before.queries;

  Metrics& m = out.metrics;
  m.Set("raster.hr_build_ms", builds ? self_ms("raster") / self_spans("raster") : 0.0, "ms");
  m.Set("raster.hr_builds_per_query", static_cast<double>(builds) / q_n, "count");
  m.Set("raster.cells_per_hr", builds ? static_cast<double>(built_cells) / static_cast<double>(builds) : 0.0, "count");
  m.Set("service.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  m.Set("service.cache.evictions_per_query",
        static_cast<double>(cache_after.evictions - cache_before.evictions) / q_n, "count");
  m.Set("service.cache.mb", static_cast<double>(cache_after.bytes_used) / (1 << 20), "MiB");
  m.Set("join.probe_ms", probe_per_query, "ms");
  m.Set("join.cells_per_query", Mean(cells, n_approx), "count");
  m.Set("join.searches_per_query", searches_per_query, "count");
  m.Set("join.ids_per_select", Mean(ids, n_select), "count");
  m.Set("geom.exact_ms", n_exact ? self_ms("geom") / static_cast<double>(n_exact) : 0.0, "ms");
  m.Set("geom.pip_tests_per_exact_query", Mean(pip, n_exact), "count");
  m.Set("query.eps_ratio_mean", Mean(eps_sum, n_approx), "ratio");
  m.Set("query.eps_ratio_max", eps_max, "ratio");
  m.Set("query.plan_point_index_share", Mean(pi_share, n_approx), "ratio");
  m.Set("core.execute_self_ms", self_ms("core") / q_n, "ms");
  m.Set("core.merge_ms",
        w.path == service::ExecPath::kTransport ? merge_span_ms / q_n : merge_per_query, "ms");
  m.Set("core.shards_probed_per_query", Mean(probed, n_approx), "count");
  m.Set("core.shard_prune_ratio", Mean(prune, n_route), "ratio");
  m.Set("service.queue_wait_ms", self_ms("service.queue") / q_n, "ms");
  m.Set("service.overhead_ms",
        svc_queries > 0 ? ((after.latency_sum - before.latency_sum) -
                           (after.execute_sum - before.execute_sum)) / svc_queries
                        : 0.0,
        "ms");
  m.Set("service.transport.encode_ms",
        (codec.encode_req_ms * requests + codec.encode_resp_ms * replies) / q_n, "ms");
  m.Set("service.transport.decode_ms",
        (codec.decode_req_ms * requests + codec.decode_resp_ms * replies) / q_n, "ms");
  m.Set("service.transport.request_bytes_per_query", req_bytes / q_n, "B");
  m.Set("service.transport.response_bytes_per_query", resp_bytes / q_n, "B");
  m.Set("service.transport.messages_per_query", requests / q_n, "count");
  m.Set("service.socket.roundtrip_ms", roundtrip, "ms");
  m.Set("service.socket.wire_ms", tt ? roundtrip - handle : 0.0, "ms");
  m.Set("service.socket.dials", static_cast<double>(socket_after.dials - socket_before.dials), "count");
  m.Set("service.socket.reconnects",
        static_cast<double>(socket_after.reconnects - socket_before.reconnects), "count");
  m.Set("service.socket.timeouts",
        static_cast<double>(socket_after.timeouts - socket_before.timeouts), "count");
  m.Set("service.socket.hedges", static_cast<double>(socket_after.hedges - socket_before.hedges),
        "count");
  m.Set("service.shard_server.handle_ms", handle, "ms");
  m.Set("service.shard_server.reference_hit_ratio",
        ref_hits + ref_misses > 0 ? ref_hits / (ref_hits + ref_misses) : 0.0, "ratio");
  m.Set("setup.state_build_s", setup.state_build_s, "s");
  m.Set("setup.shard_build_s", setup.shard_build_s, "s");
  m.Set("snapshot.load_s", setup.snapshot_load_s, "s");
  m.Set("setup.warm_s", setup.warm_s, "s");
  m.Set("telemetry.trace_overhead", loop_a.qps() > 0 ? loop_b.qps() / loop_a.qps() : 0.0, "ratio");
  m.Set("unaccounted_ms", self_ms("query") / q_n, "ms");

  // Self-time table and the workload's stress check.
  std::vector<std::pair<std::string, double>> layers;
  double total_self = 0.0;
  for (const auto& [name, t] : self) {
    layers.emplace_back(name == "query" ? "unaccounted" : name, t.ms);
    total_self += t.ms;
  }
  std::sort(layers.begin(), layers.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::fprintf(stdout, "self time per query by layer (traced half, %zu queries):\n",
               records.size());
  for (const auto& [name, ms] : layers) {
    std::fprintf(stdout, "  %-24s %10.4f ms  %5.1f%%\n", name.c_str(), ms / q_n,
                 total_self > 0 ? 100.0 * ms / total_self : 0.0);
  }
  std::fprintf(stdout,
               "cross-check: service execute stage %.4f ms/query vs traced executor %.4f "
               "ms/query; service qps %.2f, traced qps %.2f\n",
               svc_queries > 0 ? (after.execute_sum - before.execute_sum) / svc_queries : 0.0,
               (self_ms("core") + self_ms("geom") + self_ms("service.cache") + self_ms("raster") +
                self_ms("service.socket")) / q_n,
               loop_a.qps(), loop_b.qps());
  if (tt) {
    std::fprintf(stdout, "codec sample: %zu requests, %zu by reference, %zu bytes re-encoded\n",
                 codec.sampled_requests, codec.reference_requests, codec.encoded_bytes);
  }
  std::string stress;
  bool stress_ok = true;
  switch (w.kind) {
    case WorkloadKind::kExploreCold:
      stress = "raster is the largest self-time share";
      stress_ok = !layers.empty() && layers.front().first == "raster";
      break;
    case WorkloadKind::kDashboardWarm: {
      const double ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
      stress = "hr_builds_per_query ~ 0 and cache hit ratio >= 0.99";
      stress_ok = static_cast<double>(builds) / q_n < 0.01 && ratio >= 0.99;
      break;
    }
    case WorkloadKind::kClusterScatter: {
      const double ratio = ref_hits + ref_misses > 0 ? ref_hits / (ref_hits + ref_misses) : 0.0;
      stress = "0.2 < reference_hit_ratio < 0.8";
      stress_ok = ratio > 0.2 && ratio < 0.8;
      break;
    }
  }
  std::fprintf(stdout, "stress check (%s): %s\n", stress.c_str(), stress_ok ? "holds" : "FAILS");
  if (!stress_ok) {
    out.correct = false;
    out.notes.push_back("stress check failed: " + stress);
  }
  if (!spans_out.empty() && !WriteSpans(spans, spans_out)) {
    out.notes.push_back("could not write " + spans_out);
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags;
  WorkloadKind kind;
  if (!ParseFlags(argc, argv, &flags) || !ParseWorkload(flags.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<explore_cold|dashboard_warm|cluster_scatter> "
                 "--seed=N --seconds=S --trace=<0|1>\n");
    return 2;
  }
  const Dataset data = MakeDataset();
  const Oracle oracle(data.points, Universe());
  const Workload workload =
      MakeWorkload(kind, flags.seed, flags.seconds, data,
                   [&oracle](const dbsa::geom::Polygon& poly) { return oracle.Count(poly); });
  const ExactAnswers exact =
      ComputeExact(oracle, workload, data.regions, std::thread::hardware_concurrency());
  const std::string slipped = CheckerSelfTest(workload, exact);
  if (!slipped.empty()) {
    std::fprintf(stderr, "oracle self-test failed: %s\n", slipped.c_str());
    return 3;
  }
  std::fprintf(stdout, "oracle self-test: a shifted count range and a selection missing an id "
                       "are both rejected\n");
  SnapshotImages images;
  if (workload.path == service::ExecPath::kTransport) images = EncodeSnapshots(data);

  const RunOutput out =
      flags.trace == 0
          ? RunEndToEnd(workload, data, exact, images, flags.seconds)
          : RunTraced(workload, data, exact, images, flags.seconds, flags.spans_out);
  for (const std::string& note : out.notes) std::fprintf(stdout, "note: %s\n", note.c_str());
  out.metrics.PrintTable(stdout);

  const std::string record = "{\"provenance\": " + Provenance(flags, workload) +
                             ", \"correct\": " + (out.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(out.attempted) +
                             ", \"failed\": " + std::to_string(out.failed) +
                             ", \"metrics\": " + out.metrics.Json() + "}";
  if (!flags.record_out.empty()) {
    std::ofstream(flags.record_out) << record << "\n";
  }
  std::fprintf(stdout, "record: %s\n", record.c_str());
  std::fprintf(stdout, "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
               out.correct ? "true" : "false", out.attempted, out.failed,
               out.metrics.Json().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
