// Tests for the socket transport: execution over REAL TCP sockets must
// be byte-identical to the loopback seam and the in-process sharded
// engine for every query kind, at every (shard count, thread count)
// combination, under every bound regime — and every fault path must
// resolve to a typed Status, never a hang, crash or UB:
//
//   * mid-query connection kill  -> reconnect (same endpoint) or
//                                   single-hop failover (replica),
//                                   payload unchanged either way;
//   * dead primary, replica up   -> failover, payload unchanged;
//   * dead primary, no replica   -> kUnavailable;
//   * silent peer                -> kDeadlineExceeded at the roundtrip
//                                   timeout;
//   * stalled-but-accepting
//     primary, replica up        -> failover within the deadline (the
//                                   first hop gets half the budget);
//   * garbage / truncated bytes  -> the listener drops the connection
//                                   and keeps serving (fuzzed);
//   * length prefix outside the
//     framing window from a
//     server                     -> kInvalidArgument, never retried.
//
// Plus ShardPlacement spec parsing. docs/wire-format.md and
// docs/operations.md describe the contracts these tests pin.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/dbsa.h"
#include "data/cluster_demo.h"
#include "envelope_util.h"
#include "service/placement.h"
#include "service/query_service.h"
#include "service/shard_server.h"
#include "service/socket_cluster.h"
#include "service/socket_transport.h"
#include "service/thread_pool.h"
#include "service/transport.h"
#include "test_util.h"
#include "transport_util.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dbsa::service {
namespace {

using dbsa::testing::ExecuteAll;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::Roundtrip;
using dbsa::testing::Submission;

void ExpectRowsIdentical(const core::AggregateAnswer& got,
                         const core::AggregateAnswer& want,
                         const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].region, want.rows[r].region) << label << " region " << r;
    EXPECT_EQ(got.rows[r].value, want.rows[r].value) << label << " region " << r;
    EXPECT_EQ(got.rows[r].lo, want.rows[r].lo) << label << " region " << r;
    EXPECT_EQ(got.rows[r].hi, want.rows[r].hi) << label << " region " << r;
  }
}

void ExpectRangeIdentical(const join::ResultRange& got,
                          const join::ResultRange& want,
                          const std::string& label) {
  EXPECT_EQ(got.estimate, want.estimate) << label;
  EXPECT_EQ(got.lo, want.lo) << label;
  EXPECT_EQ(got.hi, want.hi) << label;
}

/// A complete socket deployment: shard servers behind real TCP
/// listeners on ephemeral localhost ports (optionally with a replica
/// listener per shard serving the same slice), a placement naming them,
/// and the client stack (socket transport + router).
struct SocketSeam {
  std::shared_ptr<const core::ShardedState> sharded;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::unique_ptr<ShardListener>> primaries;
  std::vector<std::unique_ptr<ShardListener>> replicas;
  /// Per-shard drop switch: while true, the shard's PRIMARY handler
  /// drops the connection instead of answering (mid-query kill).
  std::vector<std::shared_ptr<std::atomic<bool>>> drop_primary;
  ShardPlacement placement;
  std::shared_ptr<SocketTransport> transport;
  std::unique_ptr<ShardRouter> router;
};

SocketSeam MakeSocketSeam(const std::shared_ptr<const core::EngineState>& base,
                          size_t k, bool with_replicas,
                          SocketTransport::Options options = {}) {
  SocketSeam seam;
  InProcessShardClusterOptions cluster_options;
  cluster_options.with_replicas = with_replicas;
  cluster_options.wrap_primary = [&seam](size_t, ShardListener::Handler inner) {
    seam.drop_primary.push_back(std::make_shared<std::atomic<bool>>(false));
    const auto drop = seam.drop_primary.back();
    return ShardListener::Handler([inner, drop](const std::string& request) {
      if (drop->load()) return std::string();  // Drop the connection.
      return inner(request);
    });
  };
  InProcessShardCluster cluster =
      MakeInProcessShardCluster(base, k, cluster_options);
  seam.sharded = std::move(cluster.sharded);
  seam.servers = std::move(cluster.servers);
  seam.primaries = std::move(cluster.primaries);
  seam.replicas = std::move(cluster.replicas);
  seam.placement = std::move(cluster.placement);
  seam.transport = std::make_shared<SocketTransport>(seam.placement, options);
  seam.router = std::make_unique<ShardRouter>(seam.sharded, seam.transport);
  return seam;
}

/// The loopback reference over the SAME ShardedState (shared servers are
/// fine: handlers and sockets never share a connection).
struct LoopbackSeam {
  std::vector<std::shared_ptr<ShardServer>> servers;
  std::shared_ptr<LoopbackTransport> transport;
  std::unique_ptr<ShardRouter> router;
};

LoopbackSeam MakeLoopbackSeam(const std::shared_ptr<const core::ShardedState>& sharded) {
  LoopbackSeam seam;
  std::vector<LoopbackTransport::Handler> handlers;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const core::ShardedState::Shard& shard = sharded->shard(s);
    seam.servers.push_back(
        std::make_shared<ShardServer>(shard.state, shard.global_ids,
                                      ShardServer::Options()));
    handlers.push_back([server = seam.servers.back()](const std::string& request) {
      return server->Handle(request);
    });
  }
  seam.transport = std::make_shared<LoopbackTransport>(std::move(handlers));
  seam.router = std::make_unique<ShardRouter>(sharded, seam.transport);
  return seam;
}

class SocketTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClusterDemoConfig config;  // 20000 points, 24 regions, 4096^2.
    base_ = core::BuildEngineState(data::ClusterDemoPoints(config),
                                   data::ClusterDemoRegions(config));
  }

  std::shared_ptr<const core::EngineState> base_;
};

// ---- the acceptance matrix --------------------------------------------
// K in {1,2,7,16} x threads {serial,4,8} x every query kind x bounds
// {Absolute, AtLevel, Exact}: TCP execution byte-identical to loopback
// AND to the in-process sharded engine. Mode is pinned to kPointIndex for
// aggregates so that every one of them probes across the seam (kAuto may
// resolve to the exact plan, which never leaves the client).
TEST_F(SocketTransportTest, TcpByteMatchesLoopbackAndInProcessEverywhere) {
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  // Prunes to zero shards at every K: serialization of nothing must
  // still be byte-identical to nothing.
  const geom::Polygon empty_rect = MakeRectPolygon(4000.5, 4000.5, 4095.0, 4095.0);
  const std::vector<geom::Polygon> polys = {star, corner, empty_rect};
  const std::vector<query::ErrorBound> bounds = {
      query::ErrorBound::Absolute(8.0), query::ErrorBound::AtLevel(6),
      query::ErrorBound::Exact()};

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    SocketSeam tcp = MakeSocketSeam(base_, k, /*with_replicas=*/false);
    LoopbackSeam loop = MakeLoopbackSeam(tcp.sharded);
    for (const size_t threads : {size_t{0}, size_t{4}, size_t{8}}) {
      std::unique_ptr<ThreadPool> pool;
      core::ExecHooks hooks;
      if (threads > 0) {
        pool = std::make_unique<ThreadPool>(threads);
        hooks.parallel_for = [&pool](size_t n,
                                     const std::function<void(size_t)>& fn) {
          pool->ParallelFor(n, fn);
        };
      }
      for (const query::ErrorBound& bound : bounds) {
        const std::string label = "k=" + std::to_string(k) +
                                  " threads=" + std::to_string(threads) +
                                  " bound=" + std::string(query::BoundKindName(bound.kind));

        for (const join::AggKind agg : {join::AggKind::kCount, join::AggKind::kSum}) {
          const core::Attr attr =
              agg == join::AggKind::kSum ? core::Attr::kFare : core::Attr::kNone;
          const core::AggregateAnswer in_process = core::ExecuteAggregate(
              *tcp.sharded, agg, attr, bound, core::Mode::kPointIndex, hooks);
          const core::AggregateAnswer over_loopback = ExecuteAggregate(
              *loop.router, agg, attr, bound, core::Mode::kPointIndex, hooks);
          const core::AggregateAnswer over_tcp = ExecuteAggregate(
              *tcp.router, agg, attr, bound, core::Mode::kPointIndex, hooks);
          ExpectRowsIdentical(over_tcp, in_process, label + " agg(tcp vs core)");
          ExpectRowsIdentical(over_tcp, over_loopback,
                              label + " agg(tcp vs loopback)");
        }

        for (size_t p = 0; p < polys.size(); ++p) {
          const std::string poly_label = label + " poly=" + std::to_string(p);
          const core::CountAnswer count_in_process =
              core::ExecuteCount(*tcp.sharded, polys[p], bound, hooks);
          const core::CountAnswer count_loopback =
              ExecuteCount(*loop.router, polys[p], bound, hooks);
          const core::CountAnswer count_tcp =
              ExecuteCount(*tcp.router, polys[p], bound, hooks);
          ExpectRangeIdentical(count_tcp.range, count_in_process.range,
                               poly_label + " count(tcp vs core)");
          ExpectRangeIdentical(count_tcp.range, count_loopback.range,
                               poly_label + " count(tcp vs loopback)");

          const core::SelectAnswer select_in_process =
              core::ExecuteSelect(*tcp.sharded, polys[p], bound, hooks);
          const core::SelectAnswer select_loopback =
              ExecuteSelect(*loop.router, polys[p], bound, hooks);
          const core::SelectAnswer select_tcp =
              ExecuteSelect(*tcp.router, polys[p], bound, hooks);
          EXPECT_EQ(select_tcp.ids, select_in_process.ids)
              << poly_label << " select(tcp vs core)";
          EXPECT_EQ(select_tcp.ids, select_loopback.ids)
              << poly_label << " select(tcp vs loopback)";
        }
      }
    }
  }
}

// QueryService end to end: TransportKind::kSocket against in-process
// listeners vs the loopback service — payloads, statuses and the
// reported deployment path.
TEST_F(SocketTransportTest, QueryServiceSocketMatchesLoopback) {
  const size_t k = 4;
  const InProcessShardCluster cluster = MakeInProcessShardCluster(base_, k);
  const ShardPlacement& placement = cluster.placement;

  ServiceOptions loopback_options;
  loopback_options.num_threads = 4;
  loopback_options.num_shards = k;
  loopback_options.use_transport = true;
  QueryService loopback_service(base_, loopback_options);

  ServiceOptions socket_options = loopback_options;
  socket_options.num_shards = 0;  // Derived from the placement.
  socket_options.transport_kind = TransportKind::kSocket;
  socket_options.placement = placement;
  QueryService socket_service(base_, socket_options);
  ASSERT_NE(socket_service.socket_transport(), nullptr);
  ASSERT_EQ(socket_service.sharded()->num_shards(), k);

  socket_service.WarmCache(8.0);  // Warms the per-shard caches over TCP.
  loopback_service.WarmCache(8.0);

  const geom::Polygon star = MakeStarPolygon({1400, 2600}, 300, 800, 12, 5);
  ExecOptions abs;
  abs.bound = query::ErrorBound::Absolute(8.0);
  abs.mode = core::Mode::kPointIndex;
  ExecOptions level = abs;
  level.bound = query::ErrorBound::AtLevel(6);
  ExecOptions exact;
  exact.bound = query::ErrorBound::Exact();
  std::vector<Submission> workload;
  for (const ExecOptions& options : {abs, level, exact}) {
    workload.push_back({Query::Aggregate(join::AggKind::kCount), options, "count"});
    workload.push_back(
        {Query::Aggregate(join::AggKind::kAvg, core::Attr::kFare), options, "avg"});
    workload.push_back({Query::Count(star), options, "count"});
    workload.push_back({Query::Select(star), options, "select"});
  }
  const std::vector<Result> got = ExecuteAll(socket_service, workload);
  const std::vector<Result> want = ExecuteAll(loopback_service, workload);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].status.ToString();
    ASSERT_TRUE(want[i].ok()) << i;
    EXPECT_EQ(got[i].bound.path, ExecPath::kTransport) << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    switch (want[i].kind) {
      case QueryKind::kAggregate:
        ExpectRowsIdentical(got[i].aggregate, want[i].aggregate,
                            "query " + std::to_string(i));
        break;
      case QueryKind::kCount:
        ExpectRangeIdentical(got[i].range, want[i].range,
                             "query " + std::to_string(i));
        break;
      case QueryKind::kSelect:
        EXPECT_EQ(got[i].ids, want[i].ids) << i;
        break;
    }
  }
  const SocketTransport::Stats stats = socket_service.socket_transport()->stats();
  EXPECT_GT(stats.messages, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
}

// ---- wire-level stats scrape ------------------------------------------

TEST_F(SocketTransportTest, StatsFramesScrapePerShardMetricsOverTheWire) {
  // The transport records into a registry the test holds.
  SocketTransport::Options transport_options;
  transport_options.registry = std::make_shared<telemetry::MetricRegistry>();
  SocketSeam seam =
      MakeSocketSeam(base_, 3, /*with_replicas=*/false, transport_options);
  // A query covering the whole universe routes to every shard, so each
  // server has a non-zero scatter count to report.
  const geom::Polygon everything = MakeRectPolygon(0, 0, 4096, 4096);
  ExecuteCount(*seam.router, everything, query::ErrorBound::Absolute(8.0), {});

  for (size_t s = 0; s < seam.placement.num_shards(); ++s) {
    // Raw wire client: dial the shard, send one kStatsRequest frame,
    // decode the kStatsReply — exactly what scrape_cluster_stats.sh does
    // through examples/cluster_stats.cpp.
    StatusOr<int> fd =
        DialTcp(seam.placement.shards[s].primary, Deadline::After(2000));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    const std::string request = StatsRequest().Encode();
    ASSERT_TRUE(SendAll(fd.value(), request.data(), request.size(),
                        Deadline::After(2000))
                    .ok());
    StatusOr<std::string> frame = ReadFrame(fd.value(), Deadline::After(5000));
    close(fd.value());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    StatsReply reply;
    ASSERT_TRUE(StatsReply::Decode(frame.value(), &reply).ok());

    // The exposition carries this shard's labelled scatter counter with a
    // non-zero value, and its handle-latency histogram.
    const std::string series =
        "dbsa_shard_scatter_requests_total{shard=\"" + std::to_string(s) +
        "\"}";
    const size_t pos = reply.text.find(series);
    ASSERT_NE(pos, std::string::npos) << "shard " << s << ":\n" << reply.text;
    EXPECT_NE(reply.text.substr(pos + series.size(), 2), " 0") << reply.text;
    EXPECT_NE(reply.text.find("dbsa_shard_handle_ms_count{shard=\"" +
                              std::to_string(s) + "\"}"),
              std::string::npos);
    EXPECT_NE(reply.text.find("dbsa_shard_cache_entries"), std::string::npos);
  }

  // The CLIENT side of the same traffic: the transport's own registry
  // holds per-shard roundtrip histograms and the migrated counters.
  const std::string client = transport_options.registry->RenderText();
  EXPECT_NE(client.find("dbsa_socket_messages_total"), std::string::npos);
  EXPECT_NE(client.find("dbsa_socket_roundtrip_ms_count{shard=\"0\"}"),
            std::string::npos);
  EXPECT_EQ(seam.transport->stats().messages,
            transport_options.registry->GetCounter("dbsa_socket_messages_total")
                ->Value());

  // A stats frame against a listener WITHOUT a registry falls through to
  // the shard handler, which answers a typed error partial — never a
  // hang, never a dropped connection.
  ShardListener bare(
      [](const std::string& request) {
        GatherPartial partial;
        partial.kind = ScatterRequest::Kind::kWarm;
        (void)request;
        return partial.Encode();
      },
      ShardListener::Options());
  StatusOr<int> fd = DialTcp(bare.endpoint(), Deadline::After(2000));
  ASSERT_TRUE(fd.ok());
  const std::string request = StatsRequest().Encode();
  ASSERT_TRUE(SendAll(fd.value(), request.data(), request.size(),
                      Deadline::After(2000))
                  .ok());
  StatusOr<std::string> frame = ReadFrame(fd.value(), Deadline::After(5000));
  close(fd.value());
  ASSERT_TRUE(frame.ok());
}

// ---- fault paths -------------------------------------------------------

TEST_F(SocketTransportTest, ReconnectsAfterConnectionKill) {
  SocketSeam seam = MakeSocketSeam(base_, 2, /*with_replicas=*/false);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 500, 1100, 14, 3);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);

  const core::CountAnswer before = ExecuteCount(*seam.router, star, bound, {});
  // Sever every live connection (client keeps its now-dead sockets in
  // the idle pool) and also kill the pools mid-"query stream".
  for (const auto& primary : seam.primaries) primary->CloseConnections();
  const core::CountAnswer after = ExecuteCount(*seam.router, star, bound, {});
  ExpectRangeIdentical(after.range, before.range, "after reconnect");
  const SocketTransport::Stats stats = seam.transport->stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.transport_errors, 0u);
}

TEST_F(SocketTransportTest, MidQueryConnectionKillFailsOverToReplica) {
  SocketSeam seam = MakeSocketSeam(base_, 4, /*with_replicas=*/true);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 500, 1100, 14, 3);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);

  const core::CountAnswer before = ExecuteCount(*seam.router, star, bound, {});

  // From now on every primary reads each request and then kills the
  // connection without answering — a mid-roundtrip connection loss
  // (flags on ALL shards: which shards a polygon routes to is a
  // partitioning detail the test must not depend on). The client must
  // retry (fresh connection), see the same kill, and fail over to the
  // replica; the payload must not change by a bit.
  for (const auto& drop : seam.drop_primary) drop->store(true);
  const core::CountAnswer after = ExecuteCount(*seam.router, star, bound, {});
  ExpectRangeIdentical(after.range, before.range, "after mid-query kill");
  const SocketTransport::Stats stats = seam.transport->stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.transport_errors, 0u);

  // And with the fault cleared the seam keeps working (the transport now
  // prefers the replica — no dead-primary tax on every call).
  for (const auto& drop : seam.drop_primary) drop->store(false);
  const core::CountAnswer recovered = ExecuteCount(*seam.router, star, bound, {});
  ExpectRangeIdentical(recovered.range, before.range, "after recovery");
}

TEST_F(SocketTransportTest, DeadPrimaryFailsOverToReplica) {
  SocketSeam seam = MakeSocketSeam(base_, 2, /*with_replicas=*/true);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 500, 1100, 14, 3);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);

  const core::CountAnswer before = ExecuteCount(*seam.router, star, bound, {});
  for (const auto& primary : seam.primaries) primary->Stop();  // Ports die.
  const core::CountAnswer after = ExecuteCount(*seam.router, star, bound, {});
  ExpectRangeIdentical(after.range, before.range, "served by replicas");
  EXPECT_GE(seam.transport->stats().failovers, 1u);
}

TEST_F(SocketTransportTest, DeadPrimaryWithoutReplicaIsTypedUnavailable) {
  SocketTransport::Options fast;
  fast.roundtrip_timeout_ms = 5000;
  fast.connect_timeout_ms = 500;
  fast.reconnect_backoff_ms = 5;
  SocketSeam seam = MakeSocketSeam(base_, 2, /*with_replicas=*/false, fast);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 500, 1100, 14, 3);
  const query::ErrorBound bound = query::ErrorBound::Absolute(8.0);

  ExecuteCount(*seam.router, star, bound, {});  // Healthy first.
  seam.primaries[0]->Stop();
  seam.primaries[1]->Stop();
  try {
    ExecuteCount(*seam.router, star, bound, {});
    FAIL() << "expected StatusException";
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnavailable) << e.status().ToString();
  }
  EXPECT_GE(seam.transport->stats().transport_errors, 1u);
}

TEST_F(SocketTransportTest, ResolvesOncePerEndpointUntilEveryAddressFails) {
  // getaddrinfo is the one blocking call a deadline cannot interrupt: an
  // endpoint resolves on its first dial, and a reconnect reuses the
  // addresses. Once every address has failed, the entry is dropped and
  // the next dial resolves again (a moved host is found).
  SocketTransport::Options fast;
  fast.roundtrip_timeout_ms = 5000;
  fast.connect_timeout_ms = 500;
  fast.reconnect_backoff_ms = 5;
  SocketSeam seam = MakeSocketSeam(base_, 1, /*with_replicas=*/false, fast);
  const std::string request = ScatterRequest().Encode();

  Roundtrip(*seam.transport, 0, request);
  SocketTransport::Stats stats = seam.transport->stats();
  EXPECT_EQ(stats.dials, 1u);
  EXPECT_EQ(stats.resolves, 1u);

  seam.primaries[0]->CloseConnections();
  Roundtrip(*seam.transport, 0, request);
  stats = seam.transport->stats();
  EXPECT_EQ(stats.dials, 2u);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.resolves, 1u) << "a reconnect must not resolve again";

  // The port dies: the request's first dial (cached addresses) is
  // refused, which drops the entry, so its second dial resolves again.
  seam.primaries[0]->Stop();
  try {
    Roundtrip(*seam.transport, 0, request);
    FAIL() << "expected StatusException";
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnavailable) << e.status().ToString();
  }
  stats = seam.transport->stats();
  EXPECT_EQ(stats.dials, 2u);
  EXPECT_EQ(stats.resolves, 2u) << "a dial after total failure must resolve again";
}

TEST_F(SocketTransportTest, SilentPeerIsDeadlineExceeded) {
  // A peer that accepts (via the kernel backlog) but never answers: a
  // raw listening socket the test never accept()s on. The client's
  // connect succeeds, the request lands in buffers, and the response
  // never comes — the roundtrip must die at its deadline, typed.
  const int silent_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // Ephemeral.
  ASSERT_EQ(bind(silent_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(silent_fd, 4), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(getsockname(silent_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);

  ShardPlacement placement;
  placement.Add(Endpoint{"127.0.0.1", ntohs(addr.sin_port)});
  SocketTransport::Options options;
  options.roundtrip_timeout_ms = 300;
  SocketTransport transport(placement, options);
  const std::string request = ScatterRequest().Encode();
  try {
    Roundtrip(transport, 0, request);
    FAIL() << "expected StatusException";
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded)
        << e.status().ToString();
  }
  EXPECT_EQ(transport.stats().timeouts, 1u);
  close(silent_fd);
}

/// A raw TCP peer that answers the first request byte on each
/// connection with nothing but `length` as a 4-byte length prefix, then
/// holds the connection open until destroyed: a close would read as a
/// connection loss, which the client retries, and a bad prefix must not
/// be retried.
class BadPrefixPeer {
 public:
  explicit BadPrefixPeer(uint32_t length) {
    for (int i = 0; i < 4; ++i) prefix_[i] = static_cast<char>(length >> (8 * i));
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // Ephemeral.
    socklen_t addr_len = sizeof(addr);
    bound_ = listen_fd_ >= 0 &&
             bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
             listen(listen_fd_, 4) == 0 &&
             getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0;
    port_ = ntohs(addr.sin_port);
    if (bound_) thread_ = std::thread([this]() { Serve(); });
  }
  ~BadPrefixPeer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    for (const int fd : conns_) close(fd);
    if (listen_fd_ >= 0) close(listen_fd_);
  }
  BadPrefixPeer(const BadPrefixPeer&) = delete;
  BadPrefixPeer& operator=(const BadPrefixPeer&) = delete;

  bool bound() const { return bound_; }
  Endpoint endpoint() const { return Endpoint{"127.0.0.1", port_}; }

 private:
  void Serve() {
    while (!stop_.load()) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (poll(&p, 1, /*timeout_ms=*/20) <= 0) continue;
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      conns_.push_back(fd);
      pollfd c{fd, POLLIN, 0};
      char byte = 0;
      if (poll(&c, 1, /*timeout_ms=*/5000) == 1 && recv(fd, &byte, 1, 0) == 1) {
        (void)!send(fd, prefix_, sizeof(prefix_), MSG_NOSIGNAL);
      }
    }
  }

  char prefix_[4] = {};
  int listen_fd_ = -1;
  bool bound_ = false;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<int> conns_;  ///< Serve()'s own until the join.
  std::thread thread_;
};

TEST_F(SocketTransportTest, MalformedLengthPrefixFromServerIsInvalidArgument) {
  for (const uint32_t length : {uint32_t{3}, static_cast<uint32_t>(kMaxFrameBytes + 1)}) {
    SCOPED_TRACE("length prefix " + std::to_string(length));
    BadPrefixPeer peer(length);
    ASSERT_TRUE(peer.bound());
    const std::string request = ScatterRequest().Encode();

    // The demux loop: a typed kInvalidArgument, not a hang or a timeout.
    {
      ShardPlacement placement;
      placement.Add(peer.endpoint());
      SocketTransport transport(placement, {});
      try {
        Roundtrip(transport, 0, request);
        FAIL() << "expected StatusException";
      } catch (const StatusException& e) {
        EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
            << e.status().ToString();
      }
    }

    // ReadFrame on a raw connection.
    {
      const Deadline deadline = Deadline::After(5000);
      StatusOr<int> fd = DialTcp(peer.endpoint(), deadline);
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      ASSERT_TRUE(SendAll(fd.value(), request.data(), request.size(), deadline).ok());
      StatusOr<std::string> frame = ReadFrame(fd.value(), deadline);
      close(fd.value());
      EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument)
          << frame.status().ToString();
    }

    // A protocol violation is a bug, not an outage: with a healthy
    // replica placed and a budget far from its hedge, the request fails
    // typed and the replica never sees it.
    {
      ShardListener replica(
          [](const std::string&) { return GatherPartial().Encode(); },
          ShardListener::Options());
      ShardPlacement placement;
      placement.Add(peer.endpoint(), replica.endpoint());
      SocketTransport::Options options;
      options.roundtrip_timeout_ms = 60000;
      SocketTransport transport(placement, options);
      try {
        Roundtrip(transport, 0, request);
        FAIL() << "expected StatusException";
      } catch (const StatusException& e) {
        EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
            << e.status().ToString();
      }
      EXPECT_EQ(replica.stats().frames, 0u);
      EXPECT_EQ(transport.stats().failovers, 0u);
    }
  }
}

TEST_F(SocketTransportTest, StalledPrimaryFailsOverToHealthyReplica) {
  // A primary that accepts (kernel backlog) but never answers must NOT
  // consume the whole roundtrip deadline: the first hop is capped at
  // half the budget when the shard has an untried replica, so a healthy
  // replica still answers within the deadline (requests are idempotent,
  // resending after a stall is safe).
  const int silent_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // Ephemeral.
  ASSERT_EQ(bind(silent_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(silent_fd, 4), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(getsockname(silent_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);

  const auto sharded = core::ShardedState::Build(base_, {1});
  const core::ShardedState::Shard& shard = sharded->shard(0);
  ShardServer server(shard.state, shard.global_ids, ShardServer::Options());
  ShardListener replica(
      [&server](const std::string& request) { return server.Handle(request); },
      ShardListener::Options());

  ShardPlacement placement;
  placement.Add(Endpoint{"127.0.0.1", ntohs(addr.sin_port)}, replica.endpoint());
  SocketTransport::Options options;
  // Generous half-budget (5s): the timing assertion below must
  // discriminate "sticky preference works" (replica answers in ms) from
  // "stalls again" (>= half the budget) even under sanitizer
  // instrumentation on a loaded single-core CI machine.
  options.roundtrip_timeout_ms = 10000;
  SocketTransport transport(placement, options);

  const std::string request = ScatterRequest().Encode();
  const std::string response = Roundtrip(transport, 0, request);
  GatherPartial partial;
  ASSERT_TRUE(GatherPartial::Decode(response, &partial).ok());
  EXPECT_GE(transport.stats().failovers, 1u);
  EXPECT_EQ(transport.stats().timeouts, 0u);

  // The preference sticks to the replica: the next call must not burn
  // another half-deadline stalling on the wedged primary.
  const auto before = std::chrono::steady_clock::now();
  Roundtrip(transport, 0, request);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_LT(elapsed.count(), 4500) << "second call should skip the stalled primary";
  close(silent_fd);
}

TEST_F(SocketTransportTest, ListenerSurvivesGarbageAndTruncation) {
  const auto sharded = core::ShardedState::Build(base_, {2});
  const core::ShardedState::Shard& shard = sharded->shard(0);
  ShardServer server(shard.state, shard.global_ids, ShardServer::Options());
  ShardListener listener(
      [&server](const std::string& request) { return server.Handle(request); },
      ShardListener::Options());
  const Deadline deadline = Deadline::After(5000);

  // (a) Length prefix outside the framing window, above it and below
  // it: connection dropped, listener alive.
  for (const std::string& garbage :
       {std::string("\xff\xff\xff\xff not a frame at all"),
        std::string("\x03\x00\x00\x00xyz", 7)}) {
    StatusOr<int> fd = DialTcp(listener.endpoint(), deadline);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(SendAll(fd.value(), garbage.data(), garbage.size(), deadline).ok());
    StatusOr<std::string> response = ReadFrame(fd.value(), deadline);
    EXPECT_FALSE(response.ok());  // Dropped, not answered.
    close(fd.value());
  }
  EXPECT_EQ(listener.stats().bad_frames, 2u);

  // (b) Truncated frame: a valid header promising more bytes than sent,
  // then a close — the listener just drops the half-frame.
  {
    StatusOr<int> fd = DialTcp(listener.endpoint(), deadline);
    ASSERT_TRUE(fd.ok());
    ScatterRequest request;
    request.kind = ScatterRequest::Kind::kAggregateCells;
    const std::string frame = request.Encode();
    ASSERT_TRUE(SendAll(fd.value(), frame.data(), frame.size() / 2, deadline).ok());
    close(fd.value());
  }

  // (c) Well-framed corruption: correct length prefix, garbage payload —
  // answered with a TYPED error partial (the ShardServer contract).
  {
    StatusOr<int> fd = DialTcp(listener.endpoint(), deadline);
    ASSERT_TRUE(fd.ok());
    std::string frame = ScatterRequest().Encode();
    frame[5] ^= 0x5a;  // Break the magic.
    ASSERT_TRUE(SendAll(fd.value(), frame.data(), frame.size(), deadline).ok());
    StatusOr<std::string> response = ReadFrame(fd.value(), deadline);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(response.value(), &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kError);
    EXPECT_EQ(partial.code, StatusCode::kInvalidArgument);
    close(fd.value());
  }

  // (d) Seeded fuzz: random byte blobs on fresh connections. The
  // listener must survive every one of them.
  std::mt19937_64 rng(20260730);
  for (int round = 0; round < 32; ++round) {
    StatusOr<int> fd = DialTcp(listener.endpoint(), deadline);
    ASSERT_TRUE(fd.ok());
    std::string blob;
    const size_t len = 1 + rng() % 512;
    blob.reserve(len);
    for (size_t i = 0; i < len; ++i) blob.push_back(static_cast<char>(rng()));
    SendAll(fd.value(), blob.data(), blob.size(), deadline);
    close(fd.value());
  }

  // (e) After all of the above, a legitimate request still answers.
  {
    ShardPlacement placement;
    placement.Add(listener.endpoint());
    SocketTransport transport(placement, {});
    ScatterRequest request;
    request.kind = ScatterRequest::Kind::kAggregateCells;
    request.has_cells = true;  // Empty slice: zero aggregate back.
    const std::string response = Roundtrip(transport, 0, request.Encode());
    GatherPartial partial;
    ASSERT_TRUE(GatherPartial::Decode(response, &partial).ok());
    EXPECT_EQ(partial.status, GatherPartial::Disposition::kOk);
  }
  EXPECT_GE(listener.stats().bad_frames, 1u);
  listener.Stop();
}

// ---- placement parsing -------------------------------------------------

TEST(ShardPlacementTest, ParsesSpecWithCommentsAndOptionalReplicas) {
  const std::string spec =
      "# a 3-shard cluster\n"
      "\n"
      "2 127.0.0.1:7003\n"
      "0 127.0.0.1:7001 127.0.0.1:8001   # shard 0 has a replica\n"
      "1 host-b:7002 host-c.example:8002\n";
  StatusOr<ShardPlacement> placement = ShardPlacement::Parse(spec);
  ASSERT_TRUE(placement.ok()) << placement.status().ToString();
  ASSERT_EQ(placement->num_shards(), 3u);
  EXPECT_EQ(placement->shards[0].primary.ToString(), "127.0.0.1:7001");
  ASSERT_TRUE(placement->shards[0].has_replica);
  EXPECT_EQ(placement->shards[0].replica.ToString(), "127.0.0.1:8001");
  EXPECT_EQ(placement->shards[1].primary.host, "host-b");
  EXPECT_EQ(placement->shards[1].replica.port, 8002);
  EXPECT_FALSE(placement->shards[2].has_replica);

  // Endpoint::ToString -> Parse round-trips.
  StatusOr<ShardPlacement> again =
      ShardPlacement::Parse("0 " + placement->shards[1].primary.ToString() + " " +
                            placement->shards[0].replica.ToString() + "\n");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->shards[0].primary, placement->shards[1].primary);
  EXPECT_EQ(again->shards[0].replica, placement->shards[0].replica);
}

TEST(ShardPlacementTest, RejectsMalformedSpecsTyped) {
  const char* bad_specs[] = {
      "",                                  // No shards at all.
      "0 127.0.0.1:7001\n2 127.0.0.1:7003\n",  // Hole: shard 1 missing.
      "0 127.0.0.1:7001\n0 127.0.0.1:7002\n",  // Duplicate id.
      "x 127.0.0.1:7001\n",                // Non-numeric id.
      "0\n",                               // Missing endpoint.
      "0 127.0.0.1\n",                     // No port.
      "0 127.0.0.1:0\n",                   // Port 0.
      "0 127.0.0.1:99999\n",               // Port out of range.
      "0 127.0.0.1:7001 127.0.0.1:8001 127.0.0.1:9001\n",  // Trailing field.
      "0 fe80::1\n",                       // Bare IPv6 = missing port.
      "0 [::1:7001\n",                     // Unclosed IPv6 bracket.
  };
  for (const char* spec : bad_specs) {
    StatusOr<ShardPlacement> placement = ShardPlacement::Parse(spec);
    EXPECT_FALSE(placement.ok()) << "spec: " << spec;
    if (!placement.ok()) {
      EXPECT_EQ(placement.status().code(), StatusCode::kInvalidArgument)
          << "spec: " << spec;
    }
  }
}

TEST(ShardPlacementTest, BracketedIpv6HostsParseAndRoundTrip) {
  StatusOr<ShardPlacement> placement = ShardPlacement::Parse("0 [::1]:7001\n");
  ASSERT_TRUE(placement.ok()) << placement.status().ToString();
  EXPECT_EQ(placement->shards[0].primary.host, "::1");
  EXPECT_EQ(placement->shards[0].primary.port, 7001);
  EXPECT_EQ(placement->shards[0].primary.ToString(), "[::1]:7001");
  StatusOr<ShardPlacement> again =
      ShardPlacement::Parse("0 " + placement->shards[0].primary.ToString() + "\n");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->shards[0].primary, placement->shards[0].primary);
}

TEST(ShardPlacementTest, LoadReadsAFileAndMissingFileIsNotFound) {
  const std::string path = "placement_test.tmp";
  {
    std::ofstream out(path);
    out << "0 127.0.0.1:7001 127.0.0.1:8001\n1 127.0.0.1:7002\n";
  }
  StatusOr<ShardPlacement> placement = ShardPlacement::Load(path);
  ASSERT_TRUE(placement.ok()) << placement.status().ToString();
  EXPECT_EQ(placement->num_shards(), 2u);
  std::remove(path.c_str());

  StatusOr<ShardPlacement> missing = ShardPlacement::Load("definitely/not/here");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---- single-slice builds (shard_server_main's startup path) -----------

// A shard-server process materializes ONLY its own slice
// (ShardingOptions::only_slice); the cuts and routing metadata must be
// identical to a full build at every shard, and the other K-1 slices
// must not exist (that is the whole point: O(1) startup per process).
TEST_F(SocketTransportTest, SingleSliceBuildMatchesFullBuildRoutingAndSlice) {
  const size_t k = 4;
  core::ShardingOptions full_options;
  full_options.num_shards = k;
  const auto full = core::ShardedState::Build(base_, full_options);
  ASSERT_TRUE(full->has_slices());
  for (size_t s = 0; s < k; ++s) {
    core::ShardingOptions one;
    one.num_shards = k;
    one.only_slice = static_cast<int>(s);
    const auto single = core::ShardedState::Build(base_, one);
    ASSERT_EQ(single->num_shards(), full->num_shards());
    // Partial slices must not be mistaken for a scatter-capable build.
    EXPECT_FALSE(single->has_slices());
    for (size_t t = 0; t < k; ++t) {
      const core::ShardedState::Shard& got = single->shard(t);
      const core::ShardedState::Shard& want = full->shard(t);
      EXPECT_EQ(got.global_ids, want.global_ids) << "shard " << t;
      EXPECT_EQ(got.hilbert_lo, want.hilbert_lo) << "shard " << t;
      EXPECT_EQ(got.hilbert_hi, want.hilbert_hi) << "shard " << t;
      EXPECT_EQ(got.key_ranges, want.key_ranges) << "shard " << t;
      if (t == s) {
        ASSERT_NE(got.state, nullptr);
        ASSERT_NE(want.state, nullptr);
        EXPECT_EQ(got.state->points->locs.size(),
                  want.state->points->locs.size());
      } else {
        EXPECT_EQ(got.state, nullptr) << "shard " << t << " kept a slice";
      }
    }
  }
}

}  // namespace
}  // namespace dbsa::service
