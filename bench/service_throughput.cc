// SERVICE — throughput of the concurrent query service: queries/sec vs
// thread count, and what the approximation cache buys on repeated-epsilon
// workloads (the paper's interactive regime: many sessions asking for the
// same regions at the same handful of distance bounds).
//
// Per thread count the bench runs the same mixed workload twice against a
// fresh service: a COLD pass (every HR approximation is built) and a WARM
// pass (every approximation served from the LRU cache). The warm/cold
// ratio is the amortization argument of the serving layer.
//
// A second section measures SFC sharding on the selective-polygon
// workload (small ad-hoc viewports, one query in flight at a time — the
// interactive latency regime): qps at 1..max_shards spatial shards with a
// fixed thread count, HR cache warm, so the scatter-gather fan-out across
// surviving shards is the only variable. Speedup is reported relative to
// the single-shard path. NOTE: shard fan-out parallelism needs cores; on
// a single-core host the expected speedup is ~1x.
//
// A third section measures the shard-server message seam: the same
// selective-polygon workload with every shard probe crossing the
// serialized wire format (LoopbackTransport), cold per-shard caches vs
// warm (reference requests, no cell payloads). The loopback-vs-in-process
// ratio is the serialization overhead a real RPC deployment starts from;
// the bytes-per-query column is what the per-shard HR cache saves on the
// wire.
//
// A fourth section measures the socket transport: the same workload with
// every shard probe crossing localhost TCP (in-process listeners on
// ephemeral ports — real kernel sockets, real connection management) vs
// the loopback seam. The qps gap is the per-message cost of a real
// network hop.
//
// A fifth section measures the serialized size of wire messages (the
// envelope's bound fields and typed status codes cost a handful of bytes
// per message; reference requests ship no cells).
//
// A seventh section (RunMux) is the multiplexing argument: a CLOSED LOOP
// of D concurrent clients over a one-shard socket deployment, so all D
// requests contend for ONE connection. The "blocking" arm caps the
// connection at one in-flight request (max_inflight_per_connection = 1 —
// the retired Roundtrip-per-message transport, faithfully re-created on
// the same engine); the "multiplexed" arm pipelines all D. qps and p99
// vs depth is the case for the async seam: >= 1x at depth 1 (the tag
// adds nothing when there is nothing to overlap) and growing with depth.
//
// A startup section (RunStartup) prices the snapshot interchange
// (docs/snapshot-format.md): per-shard process start rebuilding the
// dataset vs loading an epoch-stamped slice file, and post-failover
// replica latency with a cold cell cache vs rewarm_on_failover.
//
// A sixth section measures the telemetry layer: the repeated-epsilon
// workload warm, tracing + slow-query accounting ON vs OFF. Tracing is
// observe-only by contract (payloads byte-identical either way); this
// section prices the observation itself — span timestamping, the
// per-stage histogram records, the id minting. The acceptance bar is
// tracing-on >= 0.95x tracing-off warm qps.
//
// Flags: --points=N --regions=N --rounds=N --max_threads=N
//        --max_shards=N --viewports=N --json_out=PATH

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"
#include "service/socket_cluster.h"
#include "snapshot/snapshot.h"

namespace dbsa {
namespace {

using service::Query;
using service::QueryService;
using service::ServiceOptions;

/// One envelope submission.
struct Submission {
  Query query;
  service::ExecOptions options;
};

/// The Absolute(epsilon) contract, optionally with a pinned plan.
service::ExecOptions Within(double epsilon, core::Mode mode = core::Mode::kAuto) {
  service::ExecOptions options;
  options.bound = query::ErrorBound::Absolute(epsilon);
  options.mode = mode;
  return options;
}

/// One ad-hoc count, waited for; a failed query aborts the bench.
void CountNow(QueryService& service, const geom::Polygon& poly, double epsilon) {
  const service::Result result = service.Execute(Query::Count(poly),
                                                 Within(epsilon)).get();
  DBSA_CHECK(result.ok());
}

/// The repeated-epsilon workload: region aggregations across a few
/// distance bounds plus ad-hoc viewport counts (a dashboard's refresh).
std::vector<Submission> MakeWorkload(const geom::Box& universe, size_t rounds) {
  std::vector<Submission> reqs;
  const std::vector<double> epsilons = {4.0, 16.0, 64.0};
  std::vector<geom::Polygon> viewports;
  Rng rng(2021);
  for (int v = 0; v < 4; ++v) {
    const double w = universe.Width() * rng.Uniform(0.1, 0.3);
    const double x0 = rng.Uniform(universe.min.x, universe.max.x - w);
    const double y0 = rng.Uniform(universe.min.y, universe.max.y - w);
    geom::Polygon viewport(
        geom::Ring{{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + w}, {x0, y0 + w}});
    viewport.Normalize();
    viewports.push_back(std::move(viewport));
  }
  for (size_t round = 0; round < rounds; ++round) {
    for (const double eps : epsilons) {
      reqs.push_back({Query::Aggregate(join::AggKind::kCount),
                      Within(eps, core::Mode::kPointIndex)});
      reqs.push_back({Query::Aggregate(join::AggKind::kSum, core::Attr::kFare),
                      Within(eps, core::Mode::kPointIndex)});
      for (const geom::Polygon& viewport : viewports) {
        reqs.push_back({Query::Count(viewport), Within(eps)});
      }
    }
  }
  return reqs;
}

struct PassResult {
  double seconds = 0.0;
  double qps = 0.0;
  double hit_ratio = 0.0;
};

PassResult RunPass(QueryService& service, const std::vector<Submission>& workload) {
  const service::ApproxCache::Stats before = service.cache_stats();
  Timer timer;
  for (const Submission& sub : workload) service.Submit(sub.query, sub.options);
  service.Drain();
  PassResult result;
  result.seconds = timer.Seconds();
  result.qps = static_cast<double>(workload.size()) / result.seconds;
  const service::ApproxCache::Stats after = service.cache_stats();
  const size_t hits = after.hits - before.hits;
  const size_t misses = after.misses - before.misses;
  result.hit_ratio =
      hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                    : 0.0;
  return result;
}

void Run(size_t n_points, size_t n_regions, size_t rounds, size_t max_threads) {
  PrintBanner("Service throughput: queries/sec vs threads, cold vs warm cache");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(n_regions) + " region polygons, " +
                    std::to_string(rounds) + " rounds");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));

  Timer snap_timer;
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));
  PrintNote("one-off snapshot build (grid + point index): " +
            TablePrinter::Num(snap_timer.Millis(), 4) + " ms");

  const std::vector<Submission> workload =
      MakeWorkload(snapshot->grid.universe(), rounds);
  PrintNote(std::to_string(workload.size()) + " queries per pass");
  if (workload.empty()) {
    PrintNote("empty workload (rounds=0); nothing to measure");
    return;
  }

  TablePrinter table({"threads", "cold qps", "warm qps", "warm/cold", "hit ratio",
                      "cache"});
  for (size_t threads = 1; threads <= max_threads; threads *= 2) {
    ServiceOptions options;
    options.num_threads = threads;
    options.cache_budget_bytes = size_t{256} << 20;
    QueryService service(snapshot, options);  // Fresh (cold) cache.

    const PassResult cold = RunPass(service, workload);
    const PassResult warm = RunPass(service, workload);
    const service::ApproxCache::Stats stats = service.cache_stats();

    table.AddRow({std::to_string(threads), TablePrinter::Num(cold.qps, 5),
                  TablePrinter::Num(warm.qps, 5),
                  TablePrinter::Num(warm.qps / cold.qps, 4),
                  TablePrinter::Num(warm.hit_ratio, 4), HumanBytes(stats.bytes_used)});

    bench::JsonLine("service_throughput")
        .Add("threads", threads)
        .Add("queries", workload.size())
        .Add("cold_qps", cold.qps)
        .Add("warm_qps", warm.qps)
        .Add("warm_over_cold", warm.qps / cold.qps)
        .Add("warm_hit_ratio", warm.hit_ratio)
        .Add("cache_bytes", stats.bytes_used)
        .Add("cache_entries", stats.entries)
        .Print();
  }
  table.Print();
  PrintNote("warm/cold > 1 is the approximation cache amortizing HR builds;");
  PrintNote("qps scaling with threads is the shared-snapshot concurrency.");
}

/// Selective ad-hoc viewports: each covers a few percent of the universe,
/// so its approximation cells intersect only a handful of Hilbert shards.
std::vector<geom::Polygon> MakeViewports(const geom::Box& universe, size_t count) {
  std::vector<geom::Polygon> viewports;
  Rng rng(1109);
  viewports.reserve(count);
  for (size_t v = 0; v < count; ++v) {
    // 15-30% of the side = 2-9% of the area: selective, yet wide enough
    // that the approximation cells scatter across several Hilbert shards.
    const double w = universe.Width() * rng.Uniform(0.15, 0.30);
    const double x0 = rng.Uniform(universe.min.x, universe.max.x - w);
    const double y0 = rng.Uniform(universe.min.y, universe.max.y - w);
    geom::Polygon viewport(
        geom::Ring{{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + w}, {x0, y0 + w}});
    viewport.Normalize();
    viewports.push_back(std::move(viewport));
  }
  return viewports;
}

void RunSharding(size_t n_points, size_t n_regions, size_t threads,
                 size_t max_shards, size_t num_viewports) {
  PrintBanner("SFC sharding: selective-polygon qps vs shard count");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(num_viewports) + " viewports, " +
                    std::to_string(threads) + " threads");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));

  const std::vector<geom::Polygon> viewports =
      MakeViewports(snapshot->grid.universe(), num_viewports);
  const double eps = 4.0;

  // Built once for the stats column — the HRs are identical across shard
  // counts (and across the timed passes, which serve them from the cache).
  std::vector<raster::HierarchicalRaster> viewport_hrs;
  viewport_hrs.reserve(viewports.size());
  for (const geom::Polygon& v : viewports) {
    viewport_hrs.push_back(
        raster::HierarchicalRaster::BuildEpsilon(v, snapshot->grid, eps));
  }

  TablePrinter table({"shards", "qps", "speedup", "avg surviving"});
  double base_qps = 0.0;
  for (size_t shards = 1; shards <= max_shards; shards *= 2) {
    ServiceOptions options;
    options.num_threads = threads;
    options.cache_budget_bytes = size_t{256} << 20;
    options.num_shards = shards;
    QueryService service(snapshot, options);

    // Warm the HR cache so both paths measure probes, not rasterization.
    for (const geom::Polygon& v : viewports) {
      CountNow(service, v, eps);
    }

    // One query in flight at a time: per-query latency is the metric; the
    // shard fan-out across the pool is the only intra-query parallelism.
    Timer timer;
    for (const geom::Polygon& v : viewports) {
      CountNow(service, v, eps);
    }
    const double seconds = timer.Seconds();
    const double qps = static_cast<double>(viewports.size()) / seconds;
    if (shards == 1) base_qps = qps;

    double avg_surviving = static_cast<double>(shards);
    if (service.sharded() != nullptr) {
      size_t total = 0;
      for (const raster::HierarchicalRaster& hr : viewport_hrs) {
        total += service.sharded()->SurvivingShards(hr).size();
      }
      avg_surviving =
          static_cast<double>(total) / static_cast<double>(viewports.size());
    }

    table.AddRow({std::to_string(shards), TablePrinter::Num(qps, 5),
                  TablePrinter::Num(qps / base_qps, 4),
                  TablePrinter::Num(avg_surviving, 3)});
    bench::JsonLine("service_sharding")
        .Add("shards", shards)
        .Add("threads", threads)
        .Add("queries", viewports.size())
        .Add("qps", qps)
        .Add("speedup_vs_one_shard", qps / base_qps)
        .Add("avg_surviving_shards", avg_surviving)
        .Print();
  }
  table.Print();
  PrintNote("speedup = scatter-gather across surviving shards (needs cores);");
  PrintNote("avg surviving << shards is the Hilbert-locality pruning at work.");
}

/// The message seam: the selective-viewport workload with every shard
/// probe serialized through the loopback transport — in-process sharding
/// vs cold seam (cells shipped inline) vs warm seam (per-shard caches
/// answer reference requests).
void RunTransport(size_t n_points, size_t n_regions, size_t threads,
                  size_t max_shards, size_t num_viewports) {
  PrintBanner("Shard-server seam: loopback transport vs in-process scatter");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(num_viewports) + " viewports, " +
                    std::to_string(threads) + " threads");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));
  const std::vector<geom::Polygon> viewports =
      MakeViewports(snapshot->grid.universe(), num_viewports);
  const double eps = 4.0;

  TablePrinter table({"shards", "inproc qps", "seam cold qps", "seam warm qps",
                      "warm/inproc", "req B/query cold", "req B/query warm"});
  for (size_t shards = 1; shards <= max_shards; shards *= 2) {
    ServiceOptions in_process;
    in_process.num_threads = threads;
    in_process.cache_budget_bytes = size_t{256} << 20;
    in_process.num_shards = shards;
    ServiceOptions seam = in_process;
    seam.use_transport = true;

    QueryService inproc_service(snapshot, in_process);
    QueryService seam_service(snapshot, seam);

    // Warm the central HR caches first so rasterization is off the clock
    // everywhere; the seam service's FIRST timed pass then measures
    // inline cell shipping (cold per-shard caches), the second pass
    // reference requests (warm per-shard caches).
    const auto time_pass = [&](QueryService& service) {
      Timer timer;
      for (const geom::Polygon& v : viewports) {
        CountNow(service, v, eps);
      }
      return static_cast<double>(viewports.size()) / timer.Seconds();
    };
    const double inproc_warmup = time_pass(inproc_service);
    (void)inproc_warmup;  // Central cache warm; discard.
    const double inproc_qps = time_pass(inproc_service);

    // Central cache warm-up for the seam service WITHOUT touching the
    // per-shard caches is impossible through the public API (every query
    // populates them); instead measure pass 1 (cold: inline slices) and
    // pass 2 (warm: references) and report both.
    const service::LoopbackTransport::Stats s0 = seam_service.transport_stats();
    const double seam_cold_qps = time_pass(seam_service);
    const service::LoopbackTransport::Stats s1 = seam_service.transport_stats();
    const double seam_warm_qps = time_pass(seam_service);
    const service::LoopbackTransport::Stats s2 = seam_service.transport_stats();

    const double nq = static_cast<double>(viewports.size());
    const double cold_bytes =
        static_cast<double>(s1.request_bytes - s0.request_bytes) / nq;
    const double warm_bytes =
        static_cast<double>(s2.request_bytes - s1.request_bytes) / nq;

    table.AddRow({std::to_string(shards), TablePrinter::Num(inproc_qps, 5),
                  TablePrinter::Num(seam_cold_qps, 5),
                  TablePrinter::Num(seam_warm_qps, 5),
                  TablePrinter::Num(seam_warm_qps / inproc_qps, 4),
                  TablePrinter::Num(cold_bytes, 5), TablePrinter::Num(warm_bytes, 5)});
    bench::JsonLine("service_transport")
        .Add("shards", shards)
        .Add("threads", threads)
        .Add("queries", viewports.size())
        .Add("inprocess_qps", inproc_qps)
        .Add("seam_cold_qps", seam_cold_qps)
        .Add("seam_warm_qps", seam_warm_qps)
        .Add("seam_warm_over_inprocess", seam_warm_qps / inproc_qps)
        .Add("request_bytes_per_query_cold", cold_bytes)
        .Add("request_bytes_per_query_warm", warm_bytes)
        .Add("messages", s2.messages)
        .Print();
  }
  table.Print();
  PrintNote("warm/inproc ~ 1 is the seam being (near) free once per-shard");
  PrintNote("caches serve reference requests; req bytes warm << cold is the");
  PrintNote("per-shard HR cache keeping cell payloads off the wire.");
}

/// Real RPC: the same selective-viewport workload with every shard probe
/// crossing localhost TCP sockets — in-process ShardListeners on
/// ephemeral ports, so the kernel loopback interface, the framing and
/// the connection management are all real — vs the loopback seam. The
/// socket/loopback qps ratio is the honest per-message cost of a real
/// network hop.
void RunSocket(size_t n_points, size_t n_regions, size_t threads,
               size_t max_shards, size_t num_viewports) {
  PrintBanner("Socket transport: localhost TCP vs loopback seam");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(num_viewports) + " viewports, " +
                    std::to_string(threads) + " threads");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));
  const std::vector<geom::Polygon> viewports =
      MakeViewports(snapshot->grid.universe(), num_viewports);
  const double eps = 4.0;

  TablePrinter table({"shards", "loopback warm qps", "socket warm qps",
                      "socket/loopback", "dials", "msg B/query"});
  for (size_t shards = 1; shards <= max_shards; shards *= 2) {
    ServiceOptions loopback;
    loopback.num_threads = threads;
    loopback.cache_budget_bytes = size_t{256} << 20;
    loopback.num_shards = shards;
    loopback.use_transport = true;
    QueryService loopback_service(snapshot, loopback);

    // The cluster: one listener per shard, in-process but over real TCP.
    const service::InProcessShardCluster cluster =
        service::MakeInProcessShardCluster(snapshot, shards);
    ServiceOptions socket = loopback;
    socket.num_shards = 0;  // From the placement.
    socket.transport_kind = service::TransportKind::kSocket;
    socket.placement = cluster.placement;
    QueryService socket_service(snapshot, socket);

    const auto time_pass = [&](QueryService& service) {
      Timer timer;
      for (const geom::Polygon& v : viewports) {
        CountNow(service, v, eps);
      }
      return static_cast<double>(viewports.size()) / timer.Seconds();
    };
    (void)time_pass(loopback_service);  // Warm (central + per-shard).
    const double loopback_qps = time_pass(loopback_service);
    (void)time_pass(socket_service);  // Warm + connections established.
    const service::SocketTransport::Stats s1 = socket_service.socket_transport()->stats();
    const double socket_qps = time_pass(socket_service);
    const service::SocketTransport::Stats s2 = socket_service.socket_transport()->stats();

    const double nq = static_cast<double>(viewports.size());
    const double wire_bytes =
        static_cast<double>((s2.request_bytes + s2.response_bytes) -
                            (s1.request_bytes + s1.response_bytes)) / nq;
    table.AddRow({std::to_string(shards), TablePrinter::Num(loopback_qps, 5),
                  TablePrinter::Num(socket_qps, 5),
                  TablePrinter::Num(socket_qps / loopback_qps, 4),
                  std::to_string(s2.dials), TablePrinter::Num(wire_bytes, 5)});
    bench::JsonLine("service_socket_transport")
        .Add("shards", shards)
        .Add("threads", threads)
        .Add("queries", viewports.size())
        .Add("loopback_warm_qps", loopback_qps)
        .Add("socket_warm_qps", socket_qps)
        .Add("socket_over_loopback", socket_qps / loopback_qps)
        .Add("dials", s2.dials)
        .Add("wire_bytes_per_query", wire_bytes)
        .Add("messages", s2.messages)
        .Print();
  }
  table.Print();
  PrintNote("socket/loopback < 1 is the real per-message cost (syscalls,");
  PrintNote("kernel TCP); dials staying ~ shards x threads shows connections");
  PrintNote("persist and pool.");
}

/// The multiplexing section: closed-loop concurrency over ONE shard
/// connection, blocking-equivalent vs pipelined (see the file comment).
void RunMux(size_t n_points, size_t n_regions, size_t num_viewports) {
  PrintBanner("Multiplexed transport: closed loop, blocking vs pipelined");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(num_viewports) + " viewports, 1 shard");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));
  const std::vector<geom::Polygon> viewports =
      MakeViewports(snapshot->grid.universe(), num_viewports);
  const double eps = 4.0;
  constexpr size_t kPerClient = 16;

  // One shard: every query's probe rides the same connection, so the
  // in-flight cap is the only variable between the two arms.
  const service::InProcessShardCluster cluster =
      service::MakeInProcessShardCluster(snapshot, 1);

  // One closed-loop pass: `depth` clients, each running kPerClient
  // queries back to back. Returns qps; per-query latencies land in `lat`.
  const auto closed_loop = [&](size_t depth, size_t inflight_cap,
                               bench::LatencyRecorder* lat) {
    ServiceOptions options;
    options.num_threads = depth;  // The pool must never be the bottleneck.
    options.cache_budget_bytes = size_t{256} << 20;
    options.use_transport = true;
    options.num_shards = 0;  // From the placement.
    options.transport_kind = service::TransportKind::kSocket;
    options.placement = cluster.placement;
    options.socket_options.max_inflight_per_connection = inflight_cap;
    QueryService service(snapshot, options);

    const auto pass = [&](bool record) {
      std::vector<std::vector<double>> per_client(depth);
      Timer timer;
      std::vector<std::thread> clients;
      for (size_t c = 0; c < depth; ++c) {
        clients.emplace_back([&, c]() {
          per_client[c].reserve(kPerClient);
          for (size_t i = 0; i < kPerClient; ++i) {
            Timer one;
            CountNow(service, viewports[(c * kPerClient + i) % viewports.size()], eps);
            per_client[c].push_back(one.Millis());
          }
        });
      }
      for (std::thread& t : clients) t.join();
      const double qps =
          static_cast<double>(depth * kPerClient) / timer.Seconds();
      if (record && lat != nullptr) {
        for (const std::vector<double>& ms : per_client) {
          for (const double m : ms) lat->Record(m);
        }
      }
      return qps;
    };
    (void)pass(false);  // Warm caches and the connection off the clock.
    return pass(true);
  };

  TablePrinter table({"depth", "blocking qps", "mux qps", "mux/blocking",
                      "blocking p99 (ms)", "mux p99 (ms)"});
  for (const size_t depth : {size_t{1}, size_t{8}, size_t{32}}) {
    bench::LatencyRecorder blocking_lat, mux_lat;
    const double blocking_qps = closed_loop(depth, 1, &blocking_lat);
    const double mux_qps = closed_loop(depth, 0, &mux_lat);
    table.AddRow({std::to_string(depth), TablePrinter::Num(blocking_qps, 5),
                  TablePrinter::Num(mux_qps, 5),
                  TablePrinter::Num(mux_qps / blocking_qps, 4),
                  TablePrinter::Num(blocking_lat.Quantile(99), 4),
                  TablePrinter::Num(mux_lat.Quantile(99), 4)});
    bench::JsonLine("service_mux_transport")
        .Add("inflight_depth", depth)
        .Add("queries", depth * kPerClient)
        .Add("blocking_qps", blocking_qps)
        .Add("mux_qps", mux_qps)
        .Add("mux_over_blocking", mux_qps / blocking_qps)
        .Add("blocking_p50_ms", blocking_lat.Quantile(50))
        .Add("blocking_p99_ms", blocking_lat.Quantile(99))
        .Add("mux_p50_ms", mux_lat.Quantile(50))
        .Add("mux_p99_ms", mux_lat.Quantile(99))
        .Print();
  }
  table.Print();
  PrintNote("mux/blocking ~ 1 at depth 1 (a tag on an idle connection is");
  PrintNote("free) and > 1 at depth >= 8: pipelining hides the per-message");
  PrintNote("wire latency the blocking arm pays serially per request.");
}

/// The wire-size section: one shard's scatter messages for a mid-size
/// region, inline vs reference (the envelope's contract fields ride every
/// request).
void RunEnvelope(size_t n_points, size_t n_regions) {
  PrintBanner("Wire message sizes: inline vs reference scatter requests");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(n_regions) + " region polygons");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));

  const geom::Polygon& probe_poly = snapshot->regions->polys.front();
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(probe_poly, snapshot->grid, 4.0);
  service::ScatterRequest inline_req;
  inline_req.kind = service::ScatterRequest::Kind::kAggregateCells;
  inline_req.bound_kind = query::BoundKind::kAbsoluteDistance;
  inline_req.bound_epsilon = 4.0;
  inline_req.level = snapshot->grid.LevelForEpsilon(4.0);
  inline_req.has_object = true;
  inline_req.object = service::ObjectKey(0);
  inline_req.has_cells = true;
  inline_req.cells = hr.cells();
  service::ScatterRequest reference_req = inline_req;
  reference_req.has_cells = false;
  reference_req.cells.clear();
  const size_t inline_bytes = inline_req.Encode().size();
  const size_t reference_bytes = reference_req.Encode().size();

  TablePrinter table({"cells", "inline req B", "reference req B"});
  table.AddRow({std::to_string(hr.cells().size()), std::to_string(inline_bytes),
                std::to_string(reference_bytes)});
  table.Print();
  PrintNote("Reference requests stay tens of bytes: no cell payload.");

  bench::JsonLine("service_envelope")
      .Add("wire_inline_request_bytes", inline_bytes)
      .Add("wire_reference_request_bytes", reference_bytes)
      .Add("wire_cells", hr.cells().size())
      .Print();
}

/// The telemetry-overhead section: the repeated-epsilon workload, warm,
/// with per-query tracing + stage histograms + slow-query accounting ON
/// vs OFF. Latency percentiles come from bench::LatencyRecorder — the
/// same telemetry::HistogramData the service itself scrapes.
void RunTelemetry(size_t n_points, size_t n_regions, size_t rounds,
                  size_t threads) {
  PrintBanner("Telemetry overhead: tracing on vs off, warm cache");
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(n_regions) + " region polygons, " +
                    std::to_string(threads) + " threads");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));
  const std::vector<Submission> workload =
      MakeWorkload(snapshot->grid.universe(), rounds);
  if (workload.empty()) {
    PrintNote("empty workload (rounds=0); nothing to measure");
    return;
  }

  const auto warm_qps = [&](bool tracing, bench::LatencyRecorder* lat) {
    ServiceOptions options;
    options.num_threads = threads;
    options.cache_budget_bytes = size_t{256} << 20;
    options.enable_tracing = tracing;
    if (tracing) {
      // The full observation cost: every query also crosses the
      // slow-query threshold check (but none trip it).
      options.slow_query_ms = 1e9;
    }
    QueryService service(snapshot, options);
    const auto pass = [&](bench::LatencyRecorder* record) {
      Timer timer;
      for (const Submission& sub : workload) {
        Timer one;
        service.Submit(sub.query, sub.options);
        if (record != nullptr) {
          service.Drain();  // Per-query latency: one in flight at a time.
          record->Record(one.Millis());
        }
      }
      service.Drain();
      return static_cast<double>(workload.size()) / timer.Seconds();
    };
    (void)pass(nullptr);  // Warm the HR cache off the clock.
    const double qps = pass(nullptr);
    if (lat != nullptr) (void)pass(lat);  // Separate percentile pass.
    return qps;
  };

  bench::LatencyRecorder traced_lat;
  const double off_qps = warm_qps(false, nullptr);
  const double on_qps = warm_qps(true, &traced_lat);

  TablePrinter table({"tracing off qps", "tracing on qps", "on/off",
                      "traced p50 (ms)", "traced p99 (ms)"});
  table.AddRow({TablePrinter::Num(off_qps, 5), TablePrinter::Num(on_qps, 5),
                TablePrinter::Num(on_qps / off_qps, 4),
                TablePrinter::Num(traced_lat.Quantile(50), 4),
                TablePrinter::Num(traced_lat.Quantile(99), 4)});
  table.Print();
  PrintNote("on/off >= 0.95 is the bar: spans are two steady_clock reads and");
  PrintNote("a relaxed striped-cell add each — observation must stay in the");
  PrintNote("noise. Payloads are byte-identical either way (tested).");

  bench::JsonLine("service_telemetry_overhead")
      .Add("threads", threads)
      .Add("queries", workload.size())
      .Add("tracing_off_warm_qps", off_qps)
      .Add("tracing_on_warm_qps", on_qps)
      .Add("on_over_off", on_qps / off_qps)
      .Add("traced_p50_ms", traced_lat.Quantile(50))
      .Add("traced_p99_ms", traced_lat.Quantile(99))
      .Print();
}

/// The snapshot-startup section: what epoch-stamped snapshot files
/// (src/snapshot/, docs/snapshot-format.md) buy at the two moments that
/// matter operationally. (a) Process start: a shard server without a
/// snapshot rebuilds the WHOLE dataset to agree on the shard cuts and
/// then slices its own shard (ShardingOptions::only_slice); with one it
/// parses + assembles its slice file. (b) Failover: a freshly promoted
/// replica has the right bytes but a cold cell cache — reference
/// requests miss and re-ship inline payloads until it refills;
/// ServiceOptions::rewarm_on_failover re-warms it off the query path,
/// and this section prices the difference in post-failover p99 and
/// wire bytes.
void RunStartup(size_t n_points, size_t n_regions, size_t max_shards) {
  PrintBanner("Snapshot startup: load vs rebuild, post-failover rewarm");
  const size_t shards = max_shards < 2 ? 2 : (max_shards > 4 ? 4 : max_shards);
  bench::PrintScale(HumanCount(static_cast<double>(n_points)) + " points, " +
                    std::to_string(n_regions) + " region polygons, " +
                    std::to_string(shards) + " shards");

  data::PointSet points = bench::BenchPoints(n_points);
  data::RegionSet regions =
      data::GenerateRegions(data::CensusConfig(bench::BenchUniverse(), n_regions));
  const std::shared_ptr<const core::EngineState> snapshot =
      core::BuildEngineState(std::move(points), std::move(regions));

  // Cut the snapshot set once, off the clock (deploy-time cost, paid
  // once per dataset generation, not per process).
  core::ShardingOptions full_build;
  full_build.num_shards = shards;
  const std::shared_ptr<const core::ShardedState> sharded =
      core::ShardedState::Build(snapshot, full_build);
  constexpr uint64_t kEpoch = 7;
  std::vector<std::string> slice_bytes;
  slice_bytes.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    slice_bytes.push_back(snapshot::EncodeShardSnapshot(*sharded, s, kEpoch));
  }

  // Arm 1 — rebuild: per shard-server process, regenerate the dataset
  // (the processes must agree on the cuts) and materialize one slice.
  Timer rebuild_timer;
  for (size_t s = 0; s < shards; ++s) {
    data::PointSet p = bench::BenchPoints(n_points);
    data::RegionSet r = data::GenerateRegions(
        data::CensusConfig(bench::BenchUniverse(), n_regions));
    const std::shared_ptr<const core::EngineState> base =
        core::BuildEngineState(std::move(p), std::move(r));
    core::ShardingOptions one;
    one.num_shards = shards;
    one.only_slice = static_cast<int>(s);
    (void)core::ShardedState::Build(base, one);
  }
  const double rebuild_ms =
      rebuild_timer.Millis() / static_cast<double>(shards);

  // Arm 2 — load: parse the slice file image (the copy stands in for
  // the disk read) and assemble the slice + id map, as
  // shard_server_main --snapshot does.
  Timer load_timer;
  for (size_t s = 0; s < shards; ++s) {
    StatusOr<snapshot::SnapshotReader> reader =
        snapshot::SnapshotReader::Parse(std::string(slice_bytes[s]));
    (void)reader->AssembleEngineState().value();
    (void)reader->DecodeShardIds().value();
  }
  const double load_ms = load_timer.Millis() / static_cast<double>(shards);

  TablePrinter startup_table(
      {"per-shard rebuild (ms)", "snapshot load (ms)", "rebuild/load"});
  startup_table.AddRow({TablePrinter::Num(rebuild_ms, 5),
                        TablePrinter::Num(load_ms, 5),
                        TablePrinter::Num(rebuild_ms / load_ms, 4)});
  startup_table.Print();
  PrintNote("rebuild/load is the startup speedup of --snapshot; it grows");
  PrintNote("with dataset size (load is O(slice), rebuild O(dataset)).");
  bench::JsonLine("service_snapshot_startup")
      .Add("shards", shards)
      .Add("points", n_points)
      .Add("rebuild_ms_per_shard", rebuild_ms)
      .Add("snapshot_load_ms_per_shard", load_ms)
      .Add("rebuild_over_load", rebuild_ms / load_ms)
      .Print();

  // (b) Post-failover: all primaries die after a warm pass; the replica
  // arm difference is rewarm_on_failover only.
  const double eps = 4.0;
  const size_t kQueries = 16;
  const auto failover_arm = [&](bool rewarm, bench::LatencyRecorder* lat,
                                double* bytes_per_query) {
    service::InProcessShardClusterOptions cluster_options;
    cluster_options.with_replicas = true;
    // Replicas as separate processes: own server, own (cold) cache.
    cluster_options.replica_own_server = true;
    service::InProcessShardCluster cluster =
        service::MakeInProcessShardCluster(snapshot, shards, cluster_options);
    ServiceOptions options;
    options.num_threads = 4;
    options.cache_budget_bytes = size_t{256} << 20;
    options.use_transport = true;
    options.num_shards = 0;  // From the placement.
    options.transport_kind = service::TransportKind::kSocket;
    options.placement = cluster.placement;
    options.rewarm_on_failover = rewarm;
    QueryService service(snapshot, options);

    const auto one_query = [&]() {
      Timer one;
      service.Submit(Query::Aggregate(join::AggKind::kCount),
                     Within(eps, core::Mode::kPointIndex));
      service.Drain();
      return one.Millis();
    };

    service.WarmCache(eps);
    for (size_t i = 0; i < 4; ++i) (void)one_query();  // Primaries warm.

    for (auto& primary : cluster.primaries) primary->Stop();
    // Trigger the failover (and the async rewarm) with an AD-HOC count
    // over the whole universe: it scatters to (and fails over) EVERY
    // shard but ships only its own fingerprint slices, so the REGION
    // objects the measured aggregates need stay cold unless
    // rewarm_on_failover refills them.
    const geom::Box u = snapshot->grid.universe();
    geom::Polygon trigger(geom::Ring{{u.min.x, u.min.y},
                                     {u.max.x, u.min.y},
                                     {u.max.x, u.max.y},
                                     {u.min.x, u.max.y}});
    trigger.Normalize();
    CountNow(service, trigger, eps);
    // Give the rewarm arm time to finish off the query path; the cold
    // arm sleeps the same amount so the clock fairness is exact.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const service::SocketTransport::Stats s1 =
        service.socket_transport()->stats();
    for (size_t i = 0; i < kQueries; ++i) lat->Record(one_query());
    const service::SocketTransport::Stats s2 =
        service.socket_transport()->stats();
    *bytes_per_query =
        static_cast<double>(s2.request_bytes - s1.request_bytes) /
        static_cast<double>(kQueries);
  };

  bench::LatencyRecorder cold_lat, rewarmed_lat;
  double cold_bytes = 0.0, rewarmed_bytes = 0.0;
  failover_arm(false, &cold_lat, &cold_bytes);
  failover_arm(true, &rewarmed_lat, &rewarmed_bytes);

  TablePrinter failover_table({"replica", "p50 (ms)", "p99 (ms)",
                               "req B/query"});
  failover_table.AddRow({"cold", TablePrinter::Num(cold_lat.Quantile(50), 4),
                         TablePrinter::Num(cold_lat.Quantile(99), 4),
                         TablePrinter::Num(cold_bytes, 5)});
  failover_table.AddRow({"rewarmed",
                         TablePrinter::Num(rewarmed_lat.Quantile(50), 4),
                         TablePrinter::Num(rewarmed_lat.Quantile(99), 4),
                         TablePrinter::Num(rewarmed_bytes, 5)});
  failover_table.Print();
  PrintNote("cold replicas answer kNotCached and force inline re-ships");
  PrintNote("(req B/query); rewarm_on_failover refills them off the query");
  PrintNote("path, so post-failover p99 returns to reference-request rates.");
  bench::JsonLine("service_failover_rewarm")
      .Add("shards", shards)
      .Add("queries", kQueries)
      .Add("cold_p50_ms", cold_lat.Quantile(50))
      .Add("cold_p99_ms", cold_lat.Quantile(99))
      .Add("cold_request_bytes_per_query", cold_bytes)
      .Add("rewarmed_p50_ms", rewarmed_lat.Quantile(50))
      .Add("rewarmed_p99_ms", rewarmed_lat.Quantile(99))
      .Add("rewarmed_request_bytes_per_query", rewarmed_bytes)
      .Print();
}

}  // namespace
}  // namespace dbsa

int main(int argc, char** argv) {
  const size_t n_points = dbsa::bench::FlagSize(argc, argv, "points", 100000);
  const size_t n_regions = dbsa::bench::FlagSize(argc, argv, "regions", 500);
  const size_t rounds = dbsa::bench::FlagSize(argc, argv, "rounds", 3);
  const size_t max_threads = dbsa::bench::FlagSize(argc, argv, "max_threads", 8);
  const size_t max_shards = dbsa::bench::FlagSize(argc, argv, "max_shards", 8);
  const size_t viewports = dbsa::bench::FlagSize(argc, argv, "viewports", 48);
  dbsa::bench::OpenJsonOut(dbsa::bench::FlagString(argc, argv, "json_out"));
  dbsa::Run(n_points, n_regions, rounds, max_threads);
  dbsa::RunSharding(n_points, n_regions, max_threads, max_shards, viewports);
  dbsa::RunTransport(n_points, n_regions, max_threads, max_shards, viewports);
  dbsa::RunSocket(n_points, n_regions, max_threads, max_shards, viewports);
  dbsa::RunMux(n_points, n_regions, viewports);
  dbsa::RunEnvelope(n_points, n_regions);
  dbsa::RunTelemetry(n_points, n_regions, rounds, max_threads);
  dbsa::RunStartup(n_points, n_regions, max_shards);
  dbsa::bench::CloseJsonOut();
  return 0;
}
