// The traced run's executor: the same layers the QueryService wires
// together, composed here through their public seams so the benchmark can
// put a span around each call —
//   * ThreadPool (service): queue wait from hand-off to start;
//   * core::Execute* / service::Execute*(ShardRouter&) (core, or geom for
//     exact bounds), with ExecHooks built here;
//   * the hooks' hr_provider around ApproxCache::GetOrBuild
//     (service.cache) and HierarchicalRaster::BuildLevel (raster);
//   * a decorating Transport around SocketTransport (service.socket),
//     which also counts and samples the frames for the codec replay.
// The program's own stage spans, recorded through ExecHooks::trace, are
// kept as unattributed "program.<stage>" spans (the transport path's
// merge time is read from them).

#ifndef PERFBENCH_COMPOSER_H_
#define PERFBENCH_COMPOSER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/approx_cache.h"
#include "service/shard_server.h"
#include "service/socket_transport.h"
#include "service/thread_pool.h"
#include "system.h"
#include "trace.h"

namespace perfbench {

/// Counts, times and samples every shard message.
class TracingTransport : public dbsa::service::Transport {
 public:
  TracingTransport(std::shared_ptr<dbsa::service::Transport> inner, Tracer* tracer);

  size_t num_shards() const override { return inner_->num_shards(); }
  double CostPerMessage() const override { return inner_->CostPerMessage(); }
  uint64_t Send(size_t shard, std::string request, Done done) override;

  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> replies{0};
  std::atomic<uint64_t> request_bytes{0};
  std::atomic<uint64_t> response_bytes{0};

  /// Every kSampleEvery-th frame of each direction, up to kMaxSamples.
  std::vector<std::string> TakeRequestSamples();
  std::vector<std::string> TakeResponseSamples();

 private:
  static constexpr uint64_t kSampleEvery = 4;
  static constexpr size_t kMaxSamples = 256;

  std::shared_ptr<dbsa::service::Transport> inner_;
  Tracer* tracer_;
  std::mutex mu_;
  std::vector<std::string> request_samples_;
  std::vector<std::string> response_samples_;
};

/// What one traced query did, for the per-layer metrics.
struct QueryRecord {
  dbsa::service::QueryKind kind = dbsa::service::QueryKind::kCount;
  bool exact = false;
  dbsa::core::ExecStats stats;
  double requested_epsilon = 0.0;
  size_t select_ids = 0;
};

/// A query kept for the join replay: its HRs in provider-call order.
struct ReplaySample {
  const BenchQuery* query = nullptr;
  std::vector<std::shared_ptr<const dbsa::raster::HierarchicalRaster>> hrs;
};

struct HrBuildStats {
  std::atomic<uint64_t> builds{0};
  std::atomic<uint64_t> cells{0};
};

class Composer {
 public:
  Composer(System& system, const Workload& workload, Tracer* tracer);
  ~Composer();
  Composer(const Composer&) = delete;
  Composer& operator=(const Composer&) = delete;

  /// Runs one query with spans; callable from several sessions at once.
  dbsa::service::Result Execute(const BenchQuery& q, uint64_t query_id);

  /// Starts collecting QueryRecords and replay samples (after warm-up).
  void StartRecording(int64_t from_ns) { record_from_ns_ = from_ns; }

  std::vector<QueryRecord> records() const;
  std::vector<ReplaySample> replay_samples() const;
  dbsa::service::ApproxCache& cache() { return cache_; }
  const HrBuildStats& hr_builds() const { return hr_builds_; }
  TracingTransport* transport() const { return tracing_.get(); }
  dbsa::service::SocketTransport* socket() const { return socket_.get(); }

 private:
  dbsa::service::Result Run(const BenchQuery& q, uint64_t query_id, uint64_t parent,
                            ReplaySample* sample, dbsa::core::ExecStats* stats);

  System& system_;
  const Workload& workload_;
  Tracer* tracer_;
  dbsa::service::ApproxCache cache_;
  std::shared_ptr<dbsa::service::SocketTransport> socket_;
  std::shared_ptr<TracingTransport> tracing_;
  std::unique_ptr<dbsa::service::ShardRouter> router_;
  HrBuildStats hr_builds_;
  std::atomic<int64_t> record_from_ns_{INT64_MAX};
  mutable std::mutex mu_;
  std::vector<QueryRecord> records_;
  std::vector<ReplaySample> samples_;
  size_t sampled_[3] = {};
  /// Last member: workers stop before anything they touch is destroyed.
  dbsa::service::ThreadPool pool_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMPOSER_H_
