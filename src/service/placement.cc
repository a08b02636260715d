#include "service/placement.h"

#include <fstream>
#include <sstream>

namespace dbsa::service {

std::string Endpoint::ToString() const {
  // IPv6 literals get brackets so ToString() output re-parses (the
  // placement-file round-trip contract).
  if (host.find(':') != std::string::npos) {
    return "[" + host + "]:" + std::to_string(port);
  }
  return host + ":" + std::to_string(port);
}

StatusOr<Endpoint> ParseEndpoint(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' is not of the form host:port");
  }
  Endpoint out;
  out.host = spec.substr(0, colon);
  // IPv6 literals must be bracketed ([::1]:7001) so the host/port split
  // is unambiguous; a bare colon-bearing host is a missing-port typo
  // ("fe80::1" would otherwise "parse" as host "fe80:" port 1 and only
  // surface per-query as an unresolvable endpoint).
  if (!out.host.empty() && out.host.front() == '[') {
    if (out.host.size() < 3 || out.host.back() != ']') {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "': malformed [IPv6] host");
    }
    out.host = out.host.substr(1, out.host.size() - 2);
  } else if (out.host.find(':') != std::string::npos) {
    return Status::InvalidArgument(
        "endpoint '" + spec +
        "': host contains ':' (missing port? bracket IPv6 as [addr]:port)");
  }
  const std::string port_str = spec.substr(colon + 1);
  uint32_t port = 0;
  for (const char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint '" + spec + "': non-numeric port");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("endpoint '" + spec + "': port out of range");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("endpoint '" + spec + "': port must be 1..65535");
  }
  out.port = static_cast<uint16_t>(port);
  return out;
}

ShardPlacement& ShardPlacement::Add(Endpoint primary) {
  Entry entry;
  entry.primary = std::move(primary);
  shards.push_back(std::move(entry));
  return *this;
}

ShardPlacement& ShardPlacement::Add(Endpoint primary, Endpoint replica) {
  Entry entry;
  entry.primary = std::move(primary);
  entry.has_replica = true;
  entry.replica = std::move(replica);
  shards.push_back(std::move(entry));
  return *this;
}

StatusOr<ShardPlacement> ShardPlacement::Parse(const std::string& text) {
  struct Parsed {
    bool seen = false;
    Entry entry;
  };
  std::vector<Parsed> by_id;
  std::istringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::string at_line = " (placement line " + std::to_string(line_no) + ")";
    // Strip trailing comments and whitespace-only lines.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string id_str, primary_str, replica_str, extra;
    if (!(fields >> id_str)) continue;  // Blank / comment-only line.
    if (!(fields >> primary_str)) {
      return Status::InvalidArgument("shard line needs a primary endpoint" +
                                     at_line);
    }
    const bool has_replica = static_cast<bool>(fields >> replica_str);
    if (fields >> extra) {
      return Status::InvalidArgument("unexpected trailing field '" + extra + "'" +
                                     at_line);
    }
    size_t id = 0;
    for (const char c : id_str) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("shard id '" + id_str +
                                       "' is not a number" + at_line);
      }
      id = id * 10 + static_cast<size_t>(c - '0');
      if (id > 1u << 20) {
        return Status::InvalidArgument("shard id '" + id_str +
                                       "' is implausibly large" + at_line);
      }
    }
    StatusOr<Endpoint> primary = ParseEndpoint(primary_str);
    if (!primary.ok()) {
      return Status::InvalidArgument(primary.status().message() + at_line);
    }
    Parsed parsed;
    parsed.seen = true;
    parsed.entry.primary = std::move(primary.value());
    if (has_replica) {
      StatusOr<Endpoint> replica = ParseEndpoint(replica_str);
      if (!replica.ok()) {
        return Status::InvalidArgument(replica.status().message() + at_line);
      }
      parsed.entry.has_replica = true;
      parsed.entry.replica = std::move(replica.value());
    }
    if (by_id.size() <= id) by_id.resize(id + 1);
    if (by_id[id].seen) {
      return Status::InvalidArgument("duplicate shard id " + std::to_string(id) +
                                     at_line);
    }
    by_id[id] = std::move(parsed);
  }
  if (by_id.empty()) {
    return Status::InvalidArgument("placement spec names no shards");
  }
  ShardPlacement placement;
  placement.shards.reserve(by_id.size());
  for (size_t s = 0; s < by_id.size(); ++s) {
    if (!by_id[s].seen) {
      return Status::InvalidArgument(
          "placement covers " + std::to_string(by_id.size()) +
          " shards but shard " + std::to_string(s) + " is missing");
    }
    placement.shards.push_back(std::move(by_id[s].entry));
  }
  return placement;
}

StatusOr<ShardPlacement> ShardPlacement::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot read placement file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str());
}

}  // namespace dbsa::service
