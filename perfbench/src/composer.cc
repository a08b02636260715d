#include "composer.h"

#include <exception>
#include <type_traits>

#include "core/sharded_state.h"
#include "raster/hierarchical_raster.h"

namespace perfbench {

namespace core = dbsa::core;
namespace service = dbsa::service;
using dbsa::query::BoundKind;
using service::Result;

namespace {

/// Replay samples kept per query kind (their HRs stay alive until exit).
constexpr size_t kReplayPerKind[3] = {4, 48, 48};

}  // namespace

TracingTransport::TracingTransport(std::shared_ptr<service::Transport> inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

uint64_t TracingTransport::Send(size_t shard, std::string request, Done done) {
  const SpanContext ctx = CurrentContext();
  const uint64_t n = requests.fetch_add(1);
  request_bytes.fetch_add(request.size());
  if (n % kSampleEvery == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (request_samples_.size() < kMaxSamples) request_samples_.push_back(request);
  }
  const int64_t start = NowNs();
  return inner_->Send(
      shard, std::move(request),
      [this, ctx, start, n, done = std::move(done)](dbsa::StatusOr<std::string> reply) {
        tracer_->Add(tracer_->NewId(), ctx.parent, ctx.query, "service.socket", start, NowNs());
        replies.fetch_add(1);
        if (reply.ok()) {
          response_bytes.fetch_add(reply.value().size());
          if (n % kSampleEvery == 0) {
            std::lock_guard<std::mutex> lock(mu_);
            if (response_samples_.size() < kMaxSamples) {
              response_samples_.push_back(reply.value());
            }
          }
        }
        done(std::move(reply));
      });
}

std::vector<std::string> TracingTransport::TakeRequestSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(request_samples_);
}

std::vector<std::string> TracingTransport::TakeResponseSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(response_samples_);
}

Composer::Composer(System& system, const Workload& workload, Tracer* tracer)
    : system_(system),
      workload_(workload),
      tracer_(tracer),
      cache_(service::ServiceOptions{}.cache_budget_bytes),
      pool_(kPoolThreads) {
  if (workload.path == service::ExecPath::kTransport) {
    socket_ = std::make_shared<service::SocketTransport>(system.placement);
    tracing_ = std::make_shared<TracingTransport>(socket_, tracer);
    router_ = std::make_unique<service::ShardRouter>(system.sharded, tracing_);
    router_->set_epoch(kEpoch);
  }
}

Composer::~Composer() = default;

std::vector<QueryRecord> Composer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<ReplaySample> Composer::replay_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

Result Composer::Execute(const BenchQuery& q, uint64_t query_id) {
  const uint64_t root_id = tracer_->NewId();
  const int64_t root_start = NowNs();
  const bool recording = root_start >= record_from_ns_.load();
  const bool exact = q.options.bound.kind == BoundKind::kExact;
  const size_t kind = static_cast<size_t>(q.query.kind());
  ReplaySample sample;
  sample.query = &q;
  bool keep_sample = false;
  if (recording && !exact) {
    std::lock_guard<std::mutex> lock(mu_);
    keep_sample = sampled_[kind] < kReplayPerKind[kind];
    if (keep_sample) ++sampled_[kind];
  }
  core::ExecStats stats;
  const int64_t enqueued = NowNs();
  std::future<Result> future = pool_.Async([&]() {
    tracer_->Add(tracer_->NewId(), root_id, query_id, "service.queue", enqueued, NowNs());
    return Run(q, query_id, root_id, keep_sample ? &sample : nullptr, &stats);
  });
  Result result = future.get();
  const int64_t root_end = NowNs();
  tracer_->Add(root_id, 0, query_id, "query", root_start, root_end);
  if (recording) {
    std::lock_guard<std::mutex> lock(mu_);
    QueryRecord& rec = records_.emplace_back();
    rec.kind = q.query.kind();
    rec.exact = exact;
    rec.requested_epsilon = q.options.bound.epsilon;
    rec.select_ids = result.ids.size();
    rec.stats = std::move(stats);
    if (keep_sample) samples_.push_back(std::move(sample));
  }
  return result;
}

Result Composer::Run(const BenchQuery& q, uint64_t query_id, uint64_t parent,
                     ReplaySample* sample, core::ExecStats* stats) {
  const bool exact = q.options.bound.kind == BoundKind::kExact;
  const uint64_t exec_id = tracer_->NewId();
  const int64_t exec_start = NowNs();
  ScopedContext context(query_id, exec_id);
  dbsa::telemetry::QueryTrace program_trace(dbsa::telemetry::NewTraceContext());
  std::mutex sample_mu;

  core::ExecHooks hooks;
  hooks.trace = &program_trace;
  const core::EngineState& base = *system_.base;
  hooks.hr_provider = [&](size_t poly_index, const dbsa::geom::Polygon& poly, double epsilon) {
    const uint64_t cache_id = tracer_->NewId();
    const int64_t start = NowNs();
    const int level = base.grid.LevelForEpsilon(epsilon);
    const bool ad_hoc = poly_index == core::kAdHocPolygon;
    const service::ObjectKey key = ad_hoc ? service::PolygonFingerprint(poly)
                                          : service::ObjectKey(static_cast<uint64_t>(poly_index));
    service::ApproxCache::HrPtr hr = cache_.GetOrBuild(
        key, level,
        [&]() {
          const int64_t build_start = NowNs();
          dbsa::raster::HierarchicalRaster built =
              dbsa::raster::HierarchicalRaster::BuildLevel(poly, base.grid, level);
          tracer_->Add(tracer_->NewId(), cache_id, query_id, "raster", build_start, NowNs());
          hr_builds_.builds.fetch_add(1);
          hr_builds_.cells.fetch_add(built.NumCells());
          return built;
        },
        nullptr, ad_hoc ? &poly : nullptr);
    tracer_->Add(cache_id, CurrentContext().parent, query_id, "service.cache", start, NowNs());
    if (sample != nullptr) {
      std::lock_guard<std::mutex> lock(sample_mu);
      sample->hrs.push_back(hr);
    }
    return hr;
  };
  hooks.parallel_for = [&](size_t n, const std::function<void(size_t)>& fn) {
    pool_.ParallelFor(n, [&](size_t i) {
      ScopedContext worker(query_id, exec_id);
      fn(i);
    });
  };

  Result result;
  result.kind = q.query.kind();
  result.bound.requested = q.options.bound;
  result.bound.path = workload_.path;
  const dbsa::query::ErrorBound& bound = q.options.bound;
  const core::ShardedState* sharded = router_ ? nullptr : system_.sharded.get();
  try {
    q.query.Visit([&](const auto& spec) {
      using Spec = std::decay_t<decltype(spec)>;
      if constexpr (std::is_same_v<Spec, service::AggregateSpec>) {
        core::AggregateAnswer a =
            router_ ? service::ExecuteAggregate(*router_, spec.agg, spec.attr, bound,
                                                q.options.mode, hooks)
            : sharded ? core::ExecuteAggregate(*sharded, spec.agg, spec.attr, bound,
                                               q.options.mode, hooks)
                      : core::ExecuteAggregate(base, spec.agg, spec.attr, bound,
                                               q.options.mode, hooks);
        *stats = a.stats;
        result.aggregate = std::move(a);
      } else if constexpr (std::is_same_v<Spec, service::CountSpec>) {
        core::CountAnswer a =
            router_   ? service::ExecuteCount(*router_, spec.poly, bound, hooks)
            : sharded ? core::ExecuteCount(*sharded, spec.poly, bound, hooks)
                      : core::ExecuteCount(base, spec.poly, bound, hooks);
        *stats = a.stats;
        result.range = a.range;
      } else {
        core::SelectAnswer a =
            router_   ? service::ExecuteSelect(*router_, spec.poly, bound, hooks)
            : sharded ? core::ExecuteSelect(*sharded, spec.poly, bound, hooks)
                      : core::ExecuteSelect(base, spec.poly, bound, hooks);
        *stats = a.stats;
        result.ids = std::move(a.ids);
      }
    });
    result.status = dbsa::Status::OK();
  } catch (const dbsa::StatusException& e) {
    result.status = e.status();
  } catch (const std::exception& e) {
    result.status = dbsa::Status::Internal(e.what());
  }
  const int64_t exec_end = NowNs();
  tracer_->Add(exec_id, parent, query_id, exact ? "geom" : "core", exec_start, exec_end);
  // The program's own stage spans (offsets from the trace's epoch, taken
  // just after exec_start), kept apart from the benchmark's tree.
  for (const dbsa::telemetry::TraceSpan& s : program_trace.spans()) {
    const int64_t s0 = exec_start + static_cast<int64_t>(s.start_ms * 1e6);
    tracer_->Add(tracer_->NewId(), 0, 0, ("program." + s.stage).c_str(), s0,
                 s0 + static_cast<int64_t>(s.duration_ms * 1e6));
  }
  result.bound.epsilon_achieved = stats->achieved_epsilon;
  result.bound.hr_level = stats->hr_level;
  result.bound.cells_touched = stats->query_cells;
  result.bound.shards_probed = stats->shards_probed;
  return result;
}

}  // namespace perfbench
