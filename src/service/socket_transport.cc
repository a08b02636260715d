#include "service/socket_transport.h"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/check.h"
#include "util/determinism.h"

namespace dbsa::service {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void SetNoDelay(int fd) {
  // Request/response RPC with small frames: without TCP_NODELAY the
  // Nagle + delayed-ACK interaction turns every roundtrip into ~40 ms.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// poll() for `events` on fd within the deadline. OK when ready,
/// kDeadlineExceeded on timeout, kUnavailable on poll failure.
Status PollFor(int fd, short events, const Deadline& deadline, const char* op) {
  while (true) {
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    const int timeout = deadline.RemainingMs();
    if (!deadline.infinite() && timeout <= 0) {
      return Status::DeadlineExceeded(std::string(op) + " timed out");
    }
    const int rc = poll(&p, 1, timeout);
    if (rc > 0) return Status::OK();  // Ready (POLLERR/HUP surface on the op).
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(op) + " timed out");
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(Errno("poll"));
  }
}

/// Reads exactly n bytes. kUnavailable on EOF/reset, kDeadlineExceeded
/// on timeout.
Status RecvExactly(int fd, char* out, size_t n, const Deadline& deadline) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = recv(fd, out + off, n - off, 0);
    if (r > 0) {
      off += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) return Status::Unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const Status ready = PollFor(fd, POLLIN, deadline, "recv");
      if (!ready.ok()) return ready;
      continue;
    }
    return Status::Unavailable(Errno("recv"));
  }
  return Status::OK();
}

uint32_t LoadLe32(const char* p) {
  // Supported targets are little-endian (same convention as transport.cc).
  return dbsa::util::LoadWire<uint32_t>(p);
}

}  // namespace

int Deadline::RemainingMs() const {
  if (infinite()) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (now >= at) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(at - now).count();
  // +1: round up so a sub-millisecond remainder still polls, not spins.
  return static_cast<int>(std::min<int64_t>(ms + 1, 1 << 30));
}

Status SendAll(int fd, const char* data, size_t n, const Deadline& deadline) {
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that died mid-write must yield EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t w = send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const Status ready = PollFor(fd, POLLOUT, deadline, "send");
      if (!ready.ok()) return ready;
      continue;
    }
    return Status::Unavailable(Errno("send"));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFrame(int fd, const Deadline& deadline) {
  char prefix[4];
  const Status got_prefix = RecvExactly(fd, prefix, sizeof(prefix), deadline);
  if (!got_prefix.ok()) return got_prefix;
  const uint32_t length = LoadLe32(prefix);
  const Status framed = CheckFrameLength(length);
  if (!framed.ok()) return framed;
  std::string frame;
  frame.resize(kWireLengthSize + static_cast<size_t>(length));
  // dbsa-lint-allow(memcpy): splicing the already-received length prefix
  // back onto the frame — char-to-char of bytes the peer sent, no struct
  // and no padding can be involved.
  std::copy(prefix, prefix + sizeof(prefix), &frame[0]);
  const Status got_body =
      RecvExactly(fd, &frame[4], static_cast<size_t>(length), deadline);
  if (!got_body.ok()) return got_body;
  return frame;
}

StatusOr<int> DialTcp(const Endpoint& endpoint, const Deadline& deadline) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const int rc = getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Unavailable("resolve " + endpoint.ToString() + ": " +
                               gai_strerror(rc));
  }
  Status last = Status::Unavailable("no addresses for " + endpoint.ToString());
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          ai->ai_protocol);
    if (fd < 0) {
      last = Status::Unavailable(Errno("socket"));
      continue;
    }
    SetNoDelay(fd);
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      freeaddrinfo(res);
      return fd;
    }
    if (errno != EINPROGRESS) {
      last = Status::Unavailable(endpoint.ToString() + ": " + Errno("connect"));
      close(fd);
      continue;
    }
    const Status ready = PollFor(fd, POLLOUT, deadline, "connect");
    if (!ready.ok()) {
      close(fd);
      if (ready.code() == StatusCode::kDeadlineExceeded) {
        freeaddrinfo(res);
        return Status::DeadlineExceeded("connect to " + endpoint.ToString() +
                                        " timed out");
      }
      last = ready;
      continue;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      last = Status::Unavailable(endpoint.ToString() + ": connect: " +
                                 std::strerror(err != 0 ? err : errno));
      close(fd);
      continue;
    }
    freeaddrinfo(res);
    return fd;
  }
  freeaddrinfo(res);
  return last;
}

// ---------------------------------------------------------- SocketTransport

/// One resolved address list, cached per endpoint after the first dial.
/// getaddrinfo is the one blocking call a deadline cannot interrupt, so
/// steady-state reconnects and redial storms must not re-enter it; the
/// entry is dropped when every address fails (a moved host re-resolves).
struct SocketTransport::ResolvedAddrs {
  struct Addr {
    int family = 0;
    int socktype = 0;
    int protocol = 0;
    struct sockaddr_storage addr;
    socklen_t len = 0;
  };
  std::vector<Addr> addrs;
};

SocketTransport::SocketTransport(ShardPlacement placement)
    : SocketTransport(std::move(placement), Options()) {}

SocketTransport::SocketTransport(ShardPlacement placement, const Options& options)
    : placement_(std::move(placement)),
      options_(options),
      registry_(options.registry
                    ? options.registry
                    : std::make_shared<telemetry::MetricRegistry>()),
      messages_(registry_->GetCounter("dbsa_socket_messages_total")),
      request_bytes_(registry_->GetCounter("dbsa_socket_request_bytes_total")),
      response_bytes_(registry_->GetCounter("dbsa_socket_response_bytes_total")),
      dials_(registry_->GetCounter("dbsa_socket_dials_total")),
      reconnects_(registry_->GetCounter("dbsa_socket_reconnects_total")),
      failovers_(registry_->GetCounter("dbsa_socket_failovers_total")),
      timeouts_(registry_->GetCounter("dbsa_socket_timeouts_total")),
      transport_errors_(
          registry_->GetCounter("dbsa_socket_transport_errors_total")),
      hedges_(registry_->GetCounter("dbsa_socket_hedges_total")),
      hedge_wins_(registry_->GetCounter("dbsa_socket_hedge_wins_total")),
      resolves_(registry_->GetCounter("dbsa_socket_resolves_total")) {
  DBSA_CHECK(placement_.num_shards() > 0);
  muxes_.reserve(placement_.num_shards());
  roundtrip_ms_.reserve(placement_.num_shards());
  for (size_t s = 0; s < placement_.num_shards(); ++s) {
    muxes_.push_back(std::make_unique<Mux>());
    roundtrip_ms_.push_back(registry_->GetHistogram(
        "dbsa_socket_roundtrip_ms{shard=\"" + std::to_string(s) + "\"}"));
  }
}

namespace {
void WakeMux(const int* wake_fd) {
  const char byte = 'w';
  // EAGAIN (pipe full) is fine: a wake is already pending.
  (void)!write(wake_fd[1], &byte, 1);
}
}  // namespace

SocketTransport::~SocketTransport() {
  for (const std::unique_ptr<Mux>& mux : muxes_) {
    bool started;
    {
      dbsa::MutexLock lock(mux->mu);
      mux->stop = true;
      started = mux->thread_started;
    }
    if (!started) continue;
    WakeMux(mux->wake_fd);
    mux->thread.join();  // The loop fails every pending op on its way out.
    close(mux->wake_fd[0]);
    close(mux->wake_fd[1]);
  }
}

const Endpoint& SocketTransport::EndpointOf(size_t shard, int which) const {
  const ShardPlacement::Entry& entry = placement_.shards[shard];
  return which == kPrimary ? entry.primary : entry.replica;
}

bool SocketTransport::HasEndpoint(size_t shard, int which) const {
  return which == kPrimary || placement_.shards[shard].has_replica;
}

StatusOr<int> SocketTransport::DialCached(const Endpoint& endpoint,
                                          const Deadline& deadline) {
  const std::string key = endpoint.ToString();
  std::shared_ptr<ResolvedAddrs> cached;
  {
    dbsa::MutexLock lock(resolve_mu_);
    auto it = resolve_cache_.find(key);
    if (it != resolve_cache_.end()) cached = it->second;
  }
  if (cached == nullptr) {
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    const std::string port = std::to_string(endpoint.port);
    resolves_->Add(1);
    const int rc = getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0) {
      return Status::Unavailable("resolve " + key + ": " + gai_strerror(rc));
    }
    cached = std::make_shared<ResolvedAddrs>();
    for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      if (ai->ai_addrlen > sizeof(sockaddr_storage)) continue;
      ResolvedAddrs::Addr addr;
      addr.family = ai->ai_family;
      addr.socktype = ai->ai_socktype;
      addr.protocol = ai->ai_protocol;
      // dbsa-lint-allow(memcpy): POSIX sockaddr blob into sockaddr_storage —
      // runtime-sized kernel-owned bytes, never encoded onto the dbsa wire.
      std::memcpy(&addr.addr, ai->ai_addr, ai->ai_addrlen);
      addr.len = ai->ai_addrlen;
      cached->addrs.push_back(addr);
    }
    freeaddrinfo(res);
    if (cached->addrs.empty()) {
      return Status::Unavailable("no addresses for " + key);
    }
    dbsa::MutexLock lock(resolve_mu_);
    resolve_cache_[key] = cached;
  }

  Status last = Status::Unavailable("no addresses for " + key);
  for (const ResolvedAddrs::Addr& addr : cached->addrs) {
    const int fd = socket(addr.family, addr.socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          addr.protocol);
    if (fd < 0) {
      last = Status::Unavailable(Errno("socket"));
      continue;
    }
    SetNoDelay(fd);
    if (connect(fd, reinterpret_cast<const struct sockaddr*>(&addr.addr),
                addr.len) == 0) {
      return fd;
    }
    if (errno != EINPROGRESS) {
      last = Status::Unavailable(key + ": " + Errno("connect"));
      close(fd);
      continue;
    }
    const Status ready = PollFor(fd, POLLOUT, deadline, "connect");
    if (!ready.ok()) {
      close(fd);
      if (ready.code() == StatusCode::kDeadlineExceeded) {
        // The host is there but slow — keep the resolution cached.
        return Status::DeadlineExceeded("connect to " + key + " timed out");
      }
      last = ready;
      continue;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      last = Status::Unavailable(key + ": connect: " +
                                 std::strerror(err != 0 ? err : errno));
      close(fd);
      continue;
    }
    return fd;
  }
  // Every cached address failed: the host may have moved. Forget the
  // entry so the next dial re-resolves.
  {
    dbsa::MutexLock lock(resolve_mu_);
    resolve_cache_.erase(key);
  }
  return last;
}

void SocketTransport::EnsureThread(size_t shard) {
  Mux& mux = *muxes_[shard];
  dbsa::MutexLock lock(mux.mu);
  if (mux.thread_started) return;
  if (pipe2(mux.wake_fd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw StatusException(Status::Unavailable(Errno("pipe2")));
  }
  mux.thread = std::thread([this, shard]() { MuxLoop(shard); });
  mux.thread_started = true;
}

uint64_t SocketTransport::Send(size_t shard, std::string request, Done done) {
  if (shard >= num_shards()) {
    done(Status::InvalidArgument("SocketTransport: no such shard " +
                                 std::to_string(shard)));
    return 0;
  }
  const uint64_t correlation =
      next_correlation_.fetch_add(1, std::memory_order_relaxed);
  PatchCorrelation(&request, correlation);
  Op op;
  op.corr = correlation;
  op.request = std::move(request);
  op.done = std::move(done);
  op.deadline = Deadline::After(options_.roundtrip_timeout_ms);
  op.start = std::chrono::steady_clock::now();
  // The hedge fires at half the roundtrip budget (see Options); with no
  // budget there is no hedge.
  const int hedge_ms = options_.roundtrip_timeout_ms / 2;
  if (HasEndpoint(shard, kReplica) && hedge_ms > 0) {
    op.hedge_at = Deadline::After(hedge_ms);
  }
  EnsureThread(shard);
  Mux& mux = *muxes_[shard];
  {
    dbsa::MutexLock lock(mux.mu);
    mux.submitted.push_back(std::move(op));
  }
  WakeMux(mux.wake_fd);
  return correlation;
}

void SocketTransport::MuxLoop(size_t shard) {
  Mux& mux = *muxes_[shard];

  // Completions are collected here and fired at the end of each
  // iteration, outside every lock and with the engine state consistent
  // (a done callback may re-enter Send from another op's continuation).
  struct Fired {
    Done done;
    StatusOr<std::string> result;
  };
  std::vector<Fired> fired;

  const auto queued_on = [&](int ep, uint64_t corr) {
    const auto& q = mux.queue[ep];
    return std::find(q.begin(), q.end(), corr) != q.end();
  };
  const auto unqueue = [&](uint64_t corr) {
    for (int ep = 0; ep < 2; ++ep) {
      auto& q = mux.queue[ep];
      auto it = std::find(q.begin(), q.end(), corr);
      if (it != q.end()) q.erase(it);
    }
  };
  const auto complete = [&](uint64_t corr, StatusOr<std::string> result) {
    auto it = mux.ops.find(corr);
    if (it == mux.ops.end()) return;
    Op& op = it->second;
    unqueue(corr);
    if (result.ok()) {
      messages_->Add(1);
      request_bytes_->Add(op.request.size());
      response_bytes_->Add(result.value().size());
      roundtrip_ms_[shard]->Record(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - op.start)
              .count());
    }
    fired.push_back(Fired{std::move(op.done), std::move(result)});
    mux.ops.erase(it);
  };
  const auto complete_unavailable = [&](uint64_t corr, const Status& last) {
    transport_errors_->Add(1);
    complete(corr,
             Status::Unavailable(
                 "shard " + std::to_string(shard) + " unreachable (primary " +
                 EndpointOf(shard, kPrimary).ToString() +
                 (HasEndpoint(shard, kReplica)
                      ? ", replica " + EndpointOf(shard, kReplica).ToString()
                      : std::string(", no replica")) +
                 "): " +
                 (last.ok() ? std::string("no endpoint answered")
                            : last.message())));
  };
  // Moves every op in queue[ep] whose fresh dials there are exhausted to
  // the other endpoint — or completes it kUnavailable when there is
  // nowhere left to go.
  const auto prune_queue = [&](int ep) {
    std::deque<uint64_t> keep;
    std::vector<uint64_t> exhausted;
    for (const uint64_t corr : mux.queue[ep]) {
      Op& op = mux.ops[corr];
      if (op.dials[ep] < kMaxDialAttempts) {
        keep.push_back(corr);
        continue;
      }
      const int other = 1 - ep;
      if (op.inflight[other]) continue;  // A hedged copy is still out there.
      if (HasEndpoint(shard, other) && op.dials[other] < kMaxDialAttempts &&
          !queued_on(other, corr)) {
        mux.queue[other].push_back(corr);
        op.where = other;
      } else {
        exhausted.push_back(corr);
      }
    }
    mux.queue[ep] = std::move(keep);
    for (const uint64_t corr : exhausted) {
      complete_unavailable(corr, mux.conns[ep].last_error);
    }
  };
  // Connection death: close, then requeue (same endpoint first — its
  // remaining dial budget — then failover) or fail each op that had its
  // only copy here. `protocol` marks a framing violation: those ops get
  // a typed kInvalidArgument and are never retried (a peer that answers
  // with garbage is a bug, not an availability problem).
  const auto conn_dead = [&](int ep, const Status& why, bool protocol) {
    Conn& conn = mux.conns[ep];
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
    conn.inbuf.clear();
    conn.outbuf.clear();
    conn.last_error = why;
    std::vector<uint64_t> orphans;
    // dbsa-lint-allow(determinism): failure harvest — every collected op
    // completes with the SAME typed status; order never reaches a payload.
    for (auto& [corr, op] : mux.ops) {
      if (op.inflight[ep]) orphans.push_back(corr);
    }
    for (const uint64_t corr : orphans) {
      Op& op = mux.ops[corr];
      op.inflight[ep] = false;
      if (protocol) {
        complete(corr, Status::InvalidArgument("shard " + std::to_string(shard) +
                                               ": " + why.message()));
        continue;
      }
      const int other = 1 - ep;
      if (op.inflight[other]) continue;  // The hedged copy races on.
      if (op.dials[ep] < kMaxDialAttempts && !queued_on(ep, corr)) {
        mux.queue[ep].push_back(corr);  // Redial budget left: resend here.
        op.where = ep;
      } else if (HasEndpoint(shard, other) && op.dials[other] < kMaxDialAttempts &&
                 !queued_on(other, corr)) {
        mux.queue[other].push_back(corr);  // Fail over.
        op.where = other;
      } else if (!queued_on(ep, corr) && !queued_on(other, corr)) {
        complete_unavailable(corr, why);
      }
    }
  };

  while (true) {
    // ---- 1. Harvest the stop flag and freshly submitted ops.
    std::vector<Op> incoming;
    bool do_stop = false;
    {
      dbsa::MutexLock lock(mux.mu);
      do_stop = mux.stop;
      while (!mux.submitted.empty()) {
        incoming.push_back(std::move(mux.submitted.front()));
        mux.submitted.pop_front();
      }
    }
    if (do_stop) {
      // Fail everything still pending; the transport is going away.
      const Status bye =
          Status::Unavailable("SocketTransport destroyed with request in flight");
      for (Op& op : incoming) fired.push_back(Fired{std::move(op.done), bye});
      // dbsa-lint-allow(determinism): teardown — all pending ops fail with
      // the same kUnavailable; completion order carries no payload bytes.
      for (auto& [corr, op] : mux.ops) {
        fired.push_back(Fired{std::move(op.done), bye});
      }
      mux.ops.clear();
      mux.queue[0].clear();
      mux.queue[1].clear();
      for (Conn& conn : mux.conns) {
        if (conn.fd >= 0) close(conn.fd);
        conn.fd = -1;
      }
      for (Fired& f : fired) f.done(std::move(f.result));
      return;
    }
    for (Op& op : incoming) {
      const int ep = HasEndpoint(shard, mux.preferred) ? mux.preferred : kPrimary;
      const uint64_t corr = op.corr;
      op.where = ep;
      mux.queue[ep].push_back(corr);
      mux.ops.emplace(corr, std::move(op));
    }

    // ---- 2. Timers: per-op deadlines, then hedges.
    {
      std::vector<uint64_t> expired;
      // dbsa-lint-allow(determinism): timer harvest — expiry is per-op and
      // each completes with its own typed timeout; order is observational.
      for (const auto& [corr, op] : mux.ops) {
        if (op.deadline.expired()) expired.push_back(corr);
      }
      for (const uint64_t corr : expired) {
        timeouts_->Add(1);
        const Status& why = mux.conns[mux.ops[corr].where].last_error;
        complete(corr,
                 Status::DeadlineExceeded(
                     "shard " + std::to_string(shard) + " roundtrip exceeded " +
                     std::to_string(options_.roundtrip_timeout_ms) + " ms (" +
                     (why.ok() ? std::string("no reply within deadline")
                               : why.message()) +
                     ")"));
      }
    }
    {
      std::vector<uint64_t> to_hedge;
      // dbsa-lint-allow(determinism): hedge-timer harvest — a hedge
      // duplicates a request verbatim; firing order cannot alter any reply.
      for (const auto& [corr, op] : mux.ops) {
        if (!op.hedged && !op.hedge_at.infinite() && op.hedge_at.expired()) {
          to_hedge.push_back(corr);
        }
      }
      for (const uint64_t corr : to_hedge) {
        Op& op = mux.ops[corr];
        op.hedged = true;
        const int other = 1 - op.where;
        if (!HasEndpoint(shard, other) || op.inflight[other] ||
            queued_on(other, corr) || op.dials[other] >= kMaxDialAttempts) {
          continue;
        }
        if (op.inflight[op.where]) {
          // True hedge: the original copy stays in flight, a DUPLICATE
          // races it on the other endpoint. First reply wins; the loser
          // lands as an unknown correlation id and is dropped.
          hedges_->Add(1);
          mux.queue[other].push_back(corr);
        } else {
          // Not sent anywhere yet (dial-blocked): a move, not a duplicate.
          unqueue(corr);
          mux.queue[other].push_back(corr);
          op.where = other;
        }
      }
    }

    // ---- 3. Connections: dial where needed, then fill output buffers.
    for (int ep = 0; ep < 2; ++ep) {
      if (!HasEndpoint(shard, ep)) continue;
      Conn& conn = mux.conns[ep];
      if (conn.fd < 0 && !mux.queue[ep].empty()) {
        prune_queue(ep);
        if (!mux.queue[ep].empty() && conn.backoff_until.expired()) {
          // Connect budget: the option, tightened by the nearest waiting
          // op's deadline or pending hedge (a blackholed endpoint must
          // not starve the hedge timer for the full connect timeout).
          Deadline connect_deadline = Deadline::After(options_.connect_timeout_ms);
          const auto tighten = [&](const Deadline& d) {
            if (!d.infinite() && (connect_deadline.infinite() ||
                                  d.at < connect_deadline.at)) {
              connect_deadline = d;
            }
          };
          for (const uint64_t corr : mux.queue[ep]) {
            const Op& op = mux.ops[corr];
            tighten(op.deadline);
            if (!op.hedged) tighten(op.hedge_at);
          }
          StatusOr<int> dialed = DialCached(EndpointOf(shard, ep), connect_deadline);
          // Every op that waited on this dial is charged one attempt,
          // success or not — that is the per-request dial budget.
          for (const uint64_t corr : mux.queue[ep]) ++mux.ops[corr].dials[ep];
          if (dialed.ok()) {
            conn.fd = dialed.value();
            dials_->Add(1);
            if (conn.ever_connected || conn.dial_failures > 0) {
              reconnects_->Add(1);
            }
            conn.ever_connected = true;
            conn.dial_failures = 0;
            conn.last_error = Status::OK();
          } else {
            conn.last_error = dialed.status();
            ++conn.dial_failures;
            // Saturating exponential backoff (see Options), capped at 10 s.
            const long long scaled =
                static_cast<long long>(options_.reconnect_backoff_ms)
                << std::min(conn.dial_failures - 1, 20);
            conn.backoff_until = Deadline::After(
                static_cast<int>(std::min<long long>(scaled, 10000)));
            prune_queue(ep);
          }
        }
      }
      if (conn.fd >= 0) {
        for (const uint64_t corr : mux.queue[ep]) {
          Op& op = mux.ops[corr];
          if (op.inflight[ep]) continue;  // Already racing on this conn.
          conn.outbuf.append(op.request);
          op.inflight[ep] = true;
          op.where = ep;
          if (op.first_endpoint < 0) op.first_endpoint = ep;
        }
        mux.queue[ep].clear();
      }
    }

    // ---- 4. Nearest timer = poll timeout.
    int timeout = -1;
    const auto nearer = [&](const Deadline& d) {
      const int r = d.RemainingMs();
      if (r >= 0 && (timeout < 0 || r < timeout)) timeout = r;
    };
    // dbsa-lint-allow(determinism): min-fold over deadlines — commutative,
    // order-insensitive by construction.
    for (const auto& [corr, op] : mux.ops) {
      nearer(op.deadline);
      if (!op.hedged) nearer(op.hedge_at);
    }
    for (int ep = 0; ep < 2; ++ep) {
      if (mux.conns[ep].fd < 0 && !mux.queue[ep].empty()) {
        nearer(mux.conns[ep].backoff_until);
      }
    }
    // Completions staged by the timer/dial steps above must not wait out
    // a poll: their ops are already erased, so nothing else would bound
    // the timeout (a dial-failure completion with otherwise-empty queues
    // would strand its callback behind an infinite poll).
    if (!fired.empty()) timeout = 0;

    // ---- 5. Wait for IO or a timer.
    struct pollfd fds[3];
    int nfds = 0;
    fds[nfds].fd = mux.wake_fd[0];
    fds[nfds].events = POLLIN;
    fds[nfds].revents = 0;
    ++nfds;
    int conn_idx[2] = {-1, -1};
    for (int ep = 0; ep < 2; ++ep) {
      const Conn& conn = mux.conns[ep];
      if (conn.fd < 0) continue;
      conn_idx[ep] = nfds;
      fds[nfds].fd = conn.fd;
      fds[nfds].events =
          static_cast<short>(POLLIN | (conn.outbuf.empty() ? 0 : POLLOUT));
      fds[nfds].revents = 0;
      ++nfds;
    }
    const int rc = poll(fds, static_cast<nfds_t>(nfds), timeout);
    if (rc < 0 && errno != EINTR) {
      // poll() itself failing is unrecoverable for this loop tick; a
      // short nap avoids a hot spin if the condition persists.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (read(mux.wake_fd[0], drain, sizeof(drain)) > 0) {
      }
    }

    // ---- 6. Move bytes and pair replies to requests by correlation id.
    for (int ep = 0; ep < 2; ++ep) {
      Conn& conn = mux.conns[ep];
      if (conn.fd < 0 || conn_idx[ep] < 0) continue;
      const short revents = fds[conn_idx[ep]].revents;
      if ((revents & POLLOUT) && !conn.outbuf.empty()) {
        size_t off = 0;
        bool dead = false;
        while (off < conn.outbuf.size()) {
          const ssize_t w = send(conn.fd, conn.outbuf.data() + off,
                                 conn.outbuf.size() - off, MSG_NOSIGNAL);
          if (w > 0) {
            off += static_cast<size_t>(w);
            continue;
          }
          if (w < 0 && errno == EINTR) continue;
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn_dead(ep, Status::Unavailable(Errno("send")), /*protocol=*/false);
          dead = true;
          break;
        }
        if (dead) continue;
        conn.outbuf.erase(0, off);
      }
      if (revents & (POLLIN | POLLERR | POLLHUP)) {
        bool dead = false;
        char chunk[64 * 1024];
        while (true) {
          const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            conn.inbuf.append(chunk, static_cast<size_t>(n));
            continue;
          }
          if (n == 0) {
            conn_dead(ep, Status::Unavailable("connection closed by peer"),
                      /*protocol=*/false);
            dead = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          conn_dead(ep, Status::Unavailable(Errno("recv")), /*protocol=*/false);
          dead = true;
          break;
        }
        if (dead) continue;
        while (conn.inbuf.size() >= kWireLengthSize) {
          const uint32_t length = LoadLe32(conn.inbuf.data());
          const Status framed = CheckFrameLength(length);
          if (!framed.ok()) {
            conn_dead(ep, framed, /*protocol=*/true);
            break;
          }
          const size_t frame_size = kWireLengthSize + static_cast<size_t>(length);
          if (conn.inbuf.size() < frame_size) break;
          std::string frame;
          if (conn.inbuf.size() == frame_size) {
            frame = std::move(conn.inbuf);
            conn.inbuf.clear();
          } else {
            frame = conn.inbuf.substr(0, frame_size);
            conn.inbuf.erase(0, frame_size);
          }
          const uint64_t corr = PeekCorrelation(frame);
          auto it = mux.ops.find(corr);
          if (it == mux.ops.end()) continue;  // Hedge loser / expired op.
          Op& op = it->second;
          if (ep == kReplica) failovers_->Add(1);
          if (op.hedged && op.first_endpoint >= 0 && ep != op.first_endpoint) {
            hedge_wins_->Add(1);
          }
          mux.preferred = ep;  // Sticky: the endpoint that answered serves next.
          complete(corr, std::move(frame));
        }
      }
    }

    // ---- 7. Fire completions with the engine consistent again.
    for (Fired& f : fired) f.done(std::move(f.result));
    fired.clear();
  }
}

SocketTransport::Stats SocketTransport::stats() const {
  Stats s;
  s.messages = messages_->Value();
  s.request_bytes = request_bytes_->Value();
  s.response_bytes = response_bytes_->Value();
  s.dials = dials_->Value();
  s.reconnects = reconnects_->Value();
  s.failovers = failovers_->Value();
  s.timeouts = timeouts_->Value();
  s.transport_errors = transport_errors_->Value();
  s.hedges = hedges_->Value();
  s.hedge_wins = hedge_wins_->Value();
  s.resolves = resolves_->Value();
  return s;
}

// ----------------------------------------------------------- ShardListener

namespace {

/// Binds a listening socket on host:port (0 = ephemeral). Returns the fd;
/// `bound_port` receives the actual port.
StatusOr<int> BindListener(const std::string& host, uint16_t port, int backlog,
                           uint16_t* bound_port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = getaddrinfo(host.empty() ? nullptr : host.c_str(),
                             port_str.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Unavailable("resolve " + host + ": " + gai_strerror(rc));
  }
  Status last = Status::Unavailable("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          ai->ai_protocol);
    if (fd < 0) {
      last = Status::Unavailable(Errno("socket"));
      continue;
    }
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 || listen(fd, backlog) != 0) {
      last = Status::Unavailable(host + ":" + port_str + ": " + Errno("bind/listen"));
      close(fd);
      continue;
    }
    struct sockaddr_storage addr;
    socklen_t addr_len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &addr_len) == 0) {
      if (addr.ss_family == AF_INET) {
        *bound_port = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        *bound_port = ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
      }
    }
    freeaddrinfo(res);
    return fd;
  }
  freeaddrinfo(res);
  return last;
}

}  // namespace

ShardListener::Conn::~Conn() { close(fd); }

ShardListener::ShardListener(Handler handler, const Options& options)
    : handler_(std::move(handler)), options_(options) {
  DBSA_CHECK(handler_ != nullptr);
  StatusOr<int> bound =
      BindListener(options_.host, options_.port, kBacklog, &port_);
  if (!bound.ok()) throw StatusException(bound.status());
  listen_fd_ = bound.value();
  const size_t n_workers = std::max<size_t>(1, options_.handler_threads);
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
}

ShardListener::~ShardListener() { Stop(); }

void ShardListener::RegisterConn(int fd) {
  dbsa::MutexLock lock(conns_mu_);
  live_fds_.insert(fd);
  ++live_threads_;
}

void ShardListener::UnregisterConn(int fd) {
  dbsa::MutexLock lock(conns_mu_);
  live_fds_.erase(fd);
  // shutdown, not close: queued responses may still hold the Conn. The
  // fd number stays allocated (so Stop/CloseConnections cannot hit a
  // recycled descriptor) until the LAST Conn owner closes it.
  shutdown(fd, SHUT_RDWR);
  --live_threads_;
  conns_cv_.NotifyAll();
}

void ShardListener::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd p;
    p.fd = listen_fd_;
    p.events = POLLIN;
    p.revents = 0;
    const int rc = poll(&p, 1, /*timeout_ms=*/50);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) continue;
    SetNoDelay(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      // Thread-per-connection needs a cap: past it, refuse THIS
      // connection (close; the client sees a reset and may retry) and
      // keep serving the live ones. Only this thread registers
      // connections, so the check cannot race RegisterConn.
      dbsa::MutexLock lock(conns_mu_);
      if (live_fds_.size() >= kMaxConnections) {
        close(fd);
        continue;
      }
    }
    auto conn = std::make_shared<Conn>(fd);
    RegisterConn(fd);
    // Detached: Stop() joins by waiting for live_threads_ to reach zero
    // (the thread's last touch of this object is the notify in
    // UnregisterConn, made while Stop still holds the object alive).
    try {
      std::thread([this, conn]() { ConnectionLoop(conn); }).detach();
    } catch (const std::system_error&) {
      // Thread creation failed (RLIMIT_NPROC, memory pressure): refuse
      // the one connection instead of letting the exception escape this
      // thread and terminate the whole server. UnregisterConn rebalances
      // live_threads_ for Stop(); the Conn destructor closes the fd.
      UnregisterConn(fd);
    }
  }
}

void ShardListener::ConnectionLoop(std::shared_ptr<Conn> conn) {
  const int fd = conn->fd;
  std::string buf;
  char chunk[64 * 1024];
  bool open = true;
  while (open && conn->open.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    const int rc = poll(&p, 1, /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // Peer closed.
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    buf.append(chunk, static_cast<size_t>(n));
    // Extract every complete frame in the buffer (multiplexing clients
    // pipeline aggressively; partial frames wait for the next read).
    while (buf.size() >= kWireLengthSize) {
      const uint32_t length = LoadLe32(buf.data());
      if (!CheckFrameLength(length).ok()) {
        // Not our framing: the stream cannot be resynchronized. Drop the
        // connection; the listener itself keeps accepting.
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        open = false;
        break;
      }
      const size_t frame_size = kWireLengthSize + static_cast<size_t>(length);
      if (buf.size() < frame_size) break;
      // Common case — the buffer holds exactly one frame: hand it on by
      // move instead of copying (frames can be MBs of cells).
      std::string frame;
      if (buf.size() == frame_size) {
        frame = std::move(buf);
        buf.clear();  // Moved-from: restore to a known-empty state.
      } else {
        frame = buf.substr(0, frame_size);
        buf.erase(0, frame_size);
      }
      frames_.fetch_add(1, std::memory_order_relaxed);
      // Stats scrape is served by the LISTENER, not the shard handler:
      // the registry covers the whole server process (shard metrics,
      // cache gauges, handle-latency histograms), and a scrape must keep
      // working even while every worker is busy with heavy queries —
      // answered inline here, never queued. The type byte peek uses the
      // envelope offsets transport.h freezes with static_asserts; a
      // malformed or version-skewed stats frame falls through to the
      // handler's typed error path.
      if (options_.registry != nullptr && frame.size() > kWireTypeOffset &&
          static_cast<uint8_t>(frame[kWireTypeOffset]) ==
              static_cast<uint8_t>(MessageType::kStatsRequest)) {
        StatsRequest stats_request;
        if (StatsRequest::Decode(frame, &stats_request).ok()) {
          StatsReply reply;
          reply.text = options_.registry->RenderText();
          std::string stats_response = reply.Encode();
          PatchCorrelation(&stats_response, PeekCorrelation(frame));
          dbsa::MutexLock wl(conn->write_mu);
          if (!SendAll(fd, stats_response.data(), stats_response.size(),
                       Deadline::After(kWriteTimeoutMs))
                   .ok()) {
            open = false;
            break;
          }
          continue;
        }
      }
      // Everything else goes to the worker pool: responses come back in
      // COMPLETION order, each echoing its request's correlation id —
      // a slow query never head-of-line blocks the fast one behind it.
      // The queue is bounded: a flooding client parks ITS connection
      // thread here, not the process.
      {
        dbsa::MutexLock lock(work_mu_);
        while (work_.size() >= kMaxQueuedWork && !workers_stop_) {
          space_cv_.Wait(lock);
        }
        if (workers_stop_) {
          open = false;
          break;
        }
        work_.push_back(Work{conn, std::move(frame)});
      }
      work_cv_.NotifyOne();
    }
  }
  UnregisterConn(fd);
}

void ShardListener::WorkerLoop() {
  while (true) {
    Work work;
    {
      dbsa::MutexLock lock(work_mu_);
      while (work_.empty() && !workers_stop_) work_cv_.Wait(lock);
      if (work_.empty()) return;  // workers_stop_ and the queue is drained.
      work = std::move(work_.front());
      work_.pop_front();
    }
    space_cv_.NotifyOne();
    if (!work.conn->open.load(std::memory_order_acquire)) continue;
    std::string response = handler_(work.frame);
    if (response.empty()) {
      // Handler-signalled connection drop (fault injection hook).
      dropped_.fetch_add(1, std::memory_order_relaxed);
      work.conn->open.store(false, std::memory_order_release);
      shutdown(work.conn->fd, SHUT_RDWR);
      continue;
    }
    // Belt and braces: the reply must carry the request's correlation id
    // or a multiplexing client cannot pair it (ShardServer already
    // echoes it; raw test handlers get it stamped here).
    PatchCorrelation(&response, PeekCorrelation(work.frame));
    // Bounded write under the per-connection lock: a client that stops
    // draining must not pin this worker forever (kWriteTimeoutMs).
    dbsa::MutexLock wl(work.conn->write_mu);
    if (!SendAll(work.conn->fd, response.data(), response.size(),
                 Deadline::After(kWriteTimeoutMs))
             .ok()) {
      work.conn->open.store(false, std::memory_order_release);
      shutdown(work.conn->fd, SHUT_RDWR);
    }
  }
}

void ShardListener::CloseConnections() {
  dbsa::MutexLock lock(conns_mu_);
  // dbsa-lint-allow(determinism): fd shutdown fan-out — per-fd side
  // effect, order-free; no bytes are produced.
  for (const int fd : live_fds_) shutdown(fd, SHUT_RDWR);
}

void ShardListener::Stop() {
  stopping_.store(true);
  // Serialize the teardown: join() on an already-joined std::thread is
  // UB, so a second (possibly concurrent) Stop must wait for the first
  // to finish rather than race it — idempotence the mutex way.
  dbsa::MutexLock stop_lock(stop_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    dbsa::MutexLock lock(conns_mu_);
    // dbsa-lint-allow(determinism): fd shutdown fan-out — see above.
    for (const int fd : live_fds_) shutdown(fd, SHUT_RDWR);
    while (live_threads_ != 0) conns_cv_.Wait(lock);
  }
  // Connection threads are gone; drain-and-stop the worker pool (queued
  // work for severed connections fails fast on write).
  {
    dbsa::MutexLock lock(work_mu_);
    workers_stop_ = true;
  }
  work_cv_.NotifyAll();
  space_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

ShardListener::Stats ShardListener::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  return s;
}

ShardListener::Stats ServeShard(
    ShardListener::Handler handler, const ShardListener::Options& options,
    const std::atomic<bool>& stop,
    const std::function<void(const Endpoint&)>& on_listening) {
  ShardListener listener(std::move(handler), options);
  if (on_listening != nullptr) on_listening(listener.endpoint());
  while (!stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  listener.Stop();
  return listener.stats();
}

}  // namespace dbsa::service
