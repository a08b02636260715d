// cluster_stats — wire-level metrics scrape client for a socket cluster.
//
// Dials each shard endpoint named by a placement file, sends one
// kStatsRequest frame, and prints the Prometheus-text reply to stdout
// (prefixed with a `# shard N <endpoint>` banner per shard). This is the
// scrape half of the telemetry story: shard_server_main processes answer
// kStatsRequest from their own MetricRegistry, so this client needs no
// dataset flags at all — it never routes a query.
//
//   ./build/example_cluster_stats --placement=cluster.placement
//   ./build/example_cluster_stats --placement=cluster.placement --shard=2
//   ./build/example_cluster_stats --placement=cluster.placement
//       --endpoint=replica          (scrape the failover listeners)
//
// Exit code 0 iff every requested shard answered. See
// scripts/scrape_cluster_stats.sh for the scripted wrapper and
// docs/operations.md § Monitoring for the metric catalogue.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "service/placement.h"
#include "service/socket_transport.h"
#include "service/transport.h"
#include "util/flags.h"

namespace {

using dbsa::util::FlagValue;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --placement=FILE [--shard=N]\n"
               "          [--endpoint=primary|replica] [--timeout_ms=5000]\n"
               "\n"
               "Scrapes each shard server's metrics over the wire\n"
               "(kStatsRequest) and prints the Prometheus text replies.\n",
               argv0);
  return 2;
}

/// One scrape: dial, send the 8-byte stats frame, read one reply frame.
dbsa::Status ScrapeShard(const dbsa::service::Endpoint& endpoint, int timeout_ms,
                         std::string* text) {
  using namespace dbsa;
  const service::Deadline deadline = service::Deadline::After(timeout_ms);
  StatusOr<int> fd = service::DialTcp(endpoint, deadline);
  if (!fd.ok()) return fd.status();
  const std::string request = service::StatsRequest().Encode();
  Status status = service::SendAll(*fd, request.data(), request.size(), deadline);
  if (status.ok()) {
    StatusOr<std::string> frame = service::ReadFrame(*fd, deadline);
    if (frame.ok()) {
      service::StatsReply reply;
      status = service::StatsReply::Decode(*frame, &reply);
      if (status.ok()) *text = std::move(reply.text);
    } else {
      status = frame.status();
    }
  }
  ::close(*fd);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbsa;

  if (!util::KnownFlagsOnly(argc, argv,
                            {"placement", "shard", "endpoint", "timeout_ms"})) {
    return Usage(argv[0]);
  }
  std::string placement_path;
  if (!FlagValue(argc, argv, "placement", &placement_path)) return Usage(argv[0]);
  std::string endpoint_role = "primary";
  FlagValue(argc, argv, "endpoint", &endpoint_role);
  if (endpoint_role != "primary" && endpoint_role != "replica") {
    return Usage(argv[0]);
  }
  const int timeout_ms =
      static_cast<int>(util::UintFlag(argc, argv, "timeout_ms", 5000));

  StatusOr<service::ShardPlacement> placement =
      service::ShardPlacement::Load(placement_path);
  if (!placement.ok()) {
    std::fprintf(stderr, "error: %s\n", placement.status().ToString().c_str());
    return 1;
  }

  size_t first = 0;
  size_t last = placement->num_shards();
  std::string shard_str;
  if (FlagValue(argc, argv, "shard", &shard_str)) {
    const size_t shard =
        static_cast<size_t>(util::UintFlag(argc, argv, "shard", 0));
    if (shard >= placement->num_shards()) {
      std::fprintf(stderr, "error: shard %zu out of range (placement has %zu)\n",
                   shard, placement->num_shards());
      return 1;
    }
    first = shard;
    last = shard + 1;
  }

  bool ok = true;
  for (size_t s = first; s < last; ++s) {
    const service::ShardPlacement::Entry& entry = placement->shards[s];
    if (endpoint_role == "replica" && !entry.has_replica) {
      std::fprintf(stderr, "error: shard %zu has no replica endpoint\n", s);
      ok = false;
      continue;
    }
    const service::Endpoint endpoint =
        endpoint_role == "replica" ? entry.replica : entry.primary;
    std::string text;
    const Status status = ScrapeShard(endpoint, timeout_ms, &text);
    if (!status.ok()) {
      std::fprintf(stderr, "error: shard %zu (%s): %s\n", s,
                   endpoint.ToString().c_str(), status.ToString().c_str());
      ok = false;
      continue;
    }
    std::printf("# shard %zu %s\n%s", s, endpoint.ToString().c_str(),
                text.c_str());
  }
  return ok ? 0 : 1;
}
