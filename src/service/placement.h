// Shard placement: which network endpoint serves which shard, and where
// its replica (if any) lives. This is the deployment-side input of the
// socket transport (service/socket_transport.h): the wire format and the
// router know nothing about hosts — they see shard indices — and the
// placement maps index -> host:port.
//
// The spec format is a deliberately boring line-oriented text file
// (operable with grep, diff and a text editor — see docs/operations.md):
//
//   # comments and blank lines are ignored
//   # <shard-id> <primary host:port> [<replica host:port>]
//   0 127.0.0.1:7601 127.0.0.1:7701
//   1 127.0.0.1:7602 127.0.0.1:7702
//   2 127.0.0.1:7603
//
// Shard ids must cover 0..K-1 exactly (any order, no duplicates), so a
// typo'd placement fails loudly at parse time instead of as a routing
// hole at query time. The replica column is optional per shard; a shard
// without one simply has no failover target (the transport reports
// kUnavailable when its primary is gone).

#ifndef DBSA_SERVICE_PLACEMENT_H_
#define DBSA_SERVICE_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dbsa::service {

/// One TCP endpoint. The host is a name or numeric address; resolution
/// happens at connect time (socket_transport.cc), not at parse time, so a
/// placement file can name hosts that are not yet up.
struct Endpoint {
  std::string host;
  uint16_t port = 0;

  bool operator==(const Endpoint& other) const {
    return host == other.host && port == other.port;
  }
  bool operator!=(const Endpoint& other) const { return !(*this == other); }

  /// "host:port".
  std::string ToString() const;
};

/// Parses "host:port". The port must be 1..65535; the host non-empty.
StatusOr<Endpoint> ParseEndpoint(const std::string& spec);

/// shard id -> primary endpoint (+ optional replica).
struct ShardPlacement {
  struct Entry {
    Endpoint primary;
    bool has_replica = false;
    Endpoint replica;
  };

  std::vector<Entry> shards;

  size_t num_shards() const { return shards.size(); }

  /// Appends one shard served at `primary` (and optionally `replica`).
  /// Builder convenience for tests and in-process demos.
  ShardPlacement& Add(Endpoint primary);
  ShardPlacement& Add(Endpoint primary, Endpoint replica);

  /// Parses a placement spec (format above). Total: malformed lines,
  /// duplicate or missing shard ids and bad endpoints all yield a typed
  /// kInvalidArgument naming the offending line.
  static StatusOr<ShardPlacement> Parse(const std::string& text);

  /// Parse(contents of `path`); kNotFound if the file cannot be read.
  static StatusOr<ShardPlacement> Load(const std::string& path);
};

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_PLACEMENT_H_
