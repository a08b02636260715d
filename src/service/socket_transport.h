// The real RPC leg of the shard seam: the wire-v4 frames of
// service/transport.h (normative byte spec: docs/wire-format.md) carried
// over TCP sockets instead of in-process function calls.
//
// Both halves live here because they share the framing and socket code:
//
//   SocketTransport  the client — an asynchronous multiplexed Transport.
//                    Each shard gets ONE persistent connection per
//                    endpoint driven by a per-shard demux thread: Send
//                    stamps a unique correlation id into the frame,
//                    enqueues it, and returns; the demux loop writes
//                    pending requests, reads replies (which may arrive
//                    in ANY order), pairs each reply with its request by
//                    correlation id, and fires the completion callback.
//                    Many requests ride one connection concurrently —
//                    K shards × Q queries no longer pin K×Q blocked
//                    threads, just K demux threads.
//
//                    Failure policy per request: a connection that dies
//                    redials the same endpoint with exponential backoff
//                    and resends (requests are idempotent — see below);
//                    an endpoint whose fresh dials are exhausted fails
//                    over ONCE to the shard's other endpoint; a request
//                    with no reply after the hedge budget fires a
//                    DUPLICATE to the untried endpoint and the first
//                    reply wins (tail-latency hedging — the stall case
//                    of PR 5's connect-time hedge, generalized). The
//                    per-request deadline maps to a typed
//                    kDeadlineExceeded; exhausting every endpoint maps
//                    to kUnavailable — a request never hangs forever
//                    (with a finite timeout) and never completes with
//                    garbage bytes as a frame. Name resolution is cached
//                    per endpoint after the first dial, so redial storms
//                    and steady-state reconnects never re-enter
//                    getaddrinfo (the one blocking call a deadline
//                    cannot interrupt); the cache drops on total dial
//                    failure so a moved host is re-resolved.
//
//   ShardListener    the server — a blocking accept loop (one thread per
//                    connection) that reassembles length-prefixed frames
//                    from the byte stream and dispatches each to a small
//                    worker pool; responses are written back under a
//                    per-connection write lock IN COMPLETION ORDER, each
//                    carrying the correlation id of the request it
//                    answers (out-of-order replies are the point of the
//                    multiplexed wire). The listener is total over
//                    hostile input: a frame whose length prefix is out
//                    of range drops the connection; garbage INSIDE a
//                    well-framed payload is the handler's problem
//                    (ShardServer answers a typed error partial) — the
//                    listener itself never crashes and never stops
//                    accepting.
//
//   ServeShard       the library-level blocking server entry point
//                    (shard_server_main.cc wraps it in a process; tests
//                    spawn it — or ShardListener directly — on threads).
//
// Retry semantics: every ScatterRequest is read-only or idempotent
// (queries touch nothing; warms overwrite the same cache slot), so the
// client may safely resend — or hedge-duplicate — a request whose reply
// has not landed; the reconnect, failover and hedging paths below rely
// on this. Non-idempotent message kinds must not be added to the wire
// without revisiting the demux engine's resend policy.
//
// Everything here is localhost-tested and deployment-shaped; remote
// placement (hosts beyond 127.0.0.1) goes through the same code path —
// see docs/operations.md for running a cluster.

#ifndef DBSA_SERVICE_SOCKET_TRANSPORT_H_
#define DBSA_SERVICE_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/placement.h"
#include "service/transport.h"
#include "telemetry/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dbsa::service {

/// A point on the monotonic clock after which socket operations give up
/// with kDeadlineExceeded. `Infinite()` never expires.
struct Deadline {
  std::chrono::steady_clock::time_point at =
      std::chrono::steady_clock::time_point::max();

  static Deadline Infinite() { return Deadline{}; }
  static Deadline After(int ms) {
    if (ms <= 0) return Infinite();
    return Deadline{std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(ms)};
  }

  bool infinite() const {
    return at == std::chrono::steady_clock::time_point::max();
  }
  bool expired() const {
    return !infinite() && std::chrono::steady_clock::now() >= at;
  }
  /// Milliseconds left, clamped to >= 0; -1 when infinite (poll() idiom).
  int RemainingMs() const;
};

// ---- low-level socket helpers (shared by client and server) ----------
// All fds are non-blocking with CLOEXEC; progress waits go through
// poll() bounded by the deadline, so a peer that stalls mid-frame maps
// to kDeadlineExceeded and a peer that vanishes maps to kUnavailable.

/// Dials `endpoint` (name resolution included). kUnavailable on refusal
/// or resolution failure, kDeadlineExceeded on connect timeout.
StatusOr<int> DialTcp(const Endpoint& endpoint, const Deadline& deadline);

/// Writes all of `data`. kUnavailable on EPIPE/ECONNRESET (SIGPIPE is
/// suppressed), kDeadlineExceeded on timeout.
Status SendAll(int fd, const char* data, size_t n, const Deadline& deadline);

/// Reads one complete length-prefixed frame ([u32 len][len bytes]) and
/// returns it INCLUDING the prefix (transport.h decoders take the full
/// frame). A length prefix outside the framing window (CheckFrameLength)
/// is rejected with kInvalidArgument without reading further — the
/// stream is then unsynchronized and the caller must drop the
/// connection.
StatusOr<std::string> ReadFrame(int fd, const Deadline& deadline);

// ------------------------------------------------------------- client

/// Asynchronous multiplexed transport over per-shard TCP connections,
/// per the constructor's ShardPlacement. Thread-safe: Send may be called
/// from any thread; completions fire on the shard's demux thread.
class SocketTransport : public Transport {
 public:
  struct Options {
    /// Budget for establishing one TCP connection (also bounded by the
    /// pending requests' deadlines, whichever is sooner).
    int connect_timeout_ms = 2000;
    /// Budget for one request end to end: every dial, send, recv,
    /// reconnect, hedge and failover on its behalf shares this deadline.
    /// <= 0 means no timeout (tests only — production callers should
    /// always bound). It also sets the tail-latency hedge: a request
    /// with no reply after HALF this budget, whose shard has an untried
    /// second endpoint, sends a DUPLICATE there; the first reply wins and
    /// the loser is dropped by correlation id. A healthy endpoint whose
    /// query legitimately computes longer than the hedge does the work
    /// twice, so size this above twice the worst-case server latency.
    int roundtrip_timeout_ms = 10000;
    /// Base reconnect backoff; doubles per consecutive failed dial to
    /// the same endpoint (25, 50, 100, ... ms, saturating at 10 s).
    int reconnect_backoff_ms = 25;
    /// Registry the transport's dbsa_socket_* metrics live in (shared
    /// with the owning QueryService so one scrape covers the whole
    /// client); null gets a private one.
    std::shared_ptr<telemetry::MetricRegistry> registry;
  };

  SocketTransport(ShardPlacement placement, const Options& options);
  explicit SocketTransport(ShardPlacement placement);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  size_t num_shards() const override { return placement_.num_shards(); }
  /// Completes with: kDeadlineExceeded when the request deadline
  /// expires, kUnavailable when every endpoint of the shard is
  /// exhausted (or the transport is destroyed), kInvalidArgument for a
  /// malformed response stream.
  uint64_t Send(size_t shard, std::string request, Done done) override;

  struct Stats {
    uint64_t messages = 0;        ///< Successfully completed requests.
    uint64_t request_bytes = 0;   ///< Of successful requests.
    uint64_t response_bytes = 0;
    uint64_t dials = 0;           ///< TCP connections established.
    uint64_t reconnects = 0;      ///< Dials replacing a previous connection.
    uint64_t failovers = 0;       ///< Requests served by a replica.
    uint64_t timeouts = 0;        ///< Requests that died on the deadline.
    uint64_t transport_errors = 0;///< Requests that exhausted all endpoints.
    uint64_t hedges = 0;          ///< Duplicate sends fired on hedge expiry.
    uint64_t hedge_wins = 0;      ///< Requests won by the hedged duplicate.
    uint64_t resolves = 0;        ///< getaddrinfo calls (cache misses).
  };
  /// Thin read of the registry counters.
  Stats stats() const;

  /// The registry the transport records into (private if Options carried
  /// none).
  const std::shared_ptr<telemetry::MetricRegistry>& registry() const {
    return registry_;
  }

 private:
  /// Endpoint index within a shard's placement entry.
  enum : int { kPrimary = 0, kReplica = 1 };
  /// Fresh dials per endpoint per request. Discovering that the
  /// established connection died costs no attempt; only dials made while
  /// the request waits are charged to it.
  static constexpr int kMaxDialAttempts = 2;

  /// One pending request, owned by the shard's demux loop.
  struct Op {
    uint64_t corr = 0;
    std::string request;
    Done done;
    Deadline deadline;
    Deadline hedge_at;  ///< Infinite when hedging is off for this op.
    std::chrono::steady_clock::time_point start;
    bool inflight[2] = {false, false};  ///< Copy outstanding per endpoint.
    int dials[2] = {0, 0};              ///< Fresh dials charged per endpoint.
    bool hedged = false;                ///< Hedge already fired (once).
    int first_endpoint = -1;            ///< Endpoint of the first send.
    int where = kPrimary;               ///< Endpoint currently responsible.
  };

  /// One endpoint's connection state, owned by the demux loop.
  struct Conn {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    bool ever_connected = false;
    int dial_failures = 0;  ///< Consecutive, drives backoff.
    Deadline backoff_until = Deadline{std::chrono::steady_clock::time_point::min()};
    Status last_error = Status::OK();  ///< For endpoint-exhaustion messages.
  };

  /// Per-shard demux engine: Send enqueues under `mu` and pokes the wake
  /// pipe; everything below the lock comment is loop-thread-owned (the
  /// analysis has no capability for thread confinement, so those fields
  /// stay unannotated — MuxLoop is their only reader and writer).
  struct Mux {
    dbsa::Mutex mu;
    std::deque<Op> submitted DBSA_GUARDED_BY(mu);
    bool stop DBSA_GUARDED_BY(mu) = false;
    bool thread_started DBSA_GUARDED_BY(mu) = false;
    std::thread thread;
    int wake_fd[2] = {-1, -1};
    // ---- demux-loop-owned state (no lock) ----
    std::unordered_map<uint64_t, Op> ops;
    std::deque<uint64_t> queue[2];  ///< Per-endpoint, awaiting send.
    Conn conns[2];
    int preferred = kPrimary;
  };

  const Endpoint& EndpointOf(size_t shard, int which) const;
  bool HasEndpoint(size_t shard, int which) const;
  /// Dials with the per-endpoint resolver cache (satellite of the async
  /// work: steady-state redials never re-enter getaddrinfo).
  StatusOr<int> DialCached(const Endpoint& endpoint, const Deadline& deadline);
  void MuxLoop(size_t shard);
  void EnsureThread(size_t shard);

  ShardPlacement placement_;
  Options options_;
  std::vector<std::unique_ptr<Mux>> muxes_;
  std::atomic<uint64_t> next_correlation_{1};

  dbsa::Mutex resolve_mu_;
  struct ResolvedAddrs;
  std::unordered_map<std::string, std::shared_ptr<ResolvedAddrs>> resolve_cache_
      DBSA_GUARDED_BY(resolve_mu_);

  std::shared_ptr<telemetry::MetricRegistry> registry_;
  telemetry::Counter* messages_;
  telemetry::Counter* request_bytes_;
  telemetry::Counter* response_bytes_;
  telemetry::Counter* dials_;
  telemetry::Counter* reconnects_;
  telemetry::Counter* failovers_;
  telemetry::Counter* timeouts_;
  telemetry::Counter* transport_errors_;
  telemetry::Counter* hedges_;
  telemetry::Counter* hedge_wins_;
  telemetry::Counter* resolves_;
  /// Per shard: dbsa_socket_roundtrip_ms{shard="N"} — wall clock of each
  /// successful request, the client-observed network+server latency.
  std::vector<telemetry::Histogram*> roundtrip_ms_;
};

// ------------------------------------------------------------- server

/// Serves `handler` over TCP: accepts connections on host:port,
/// reassembles frames (one OS thread per live connection — shard fan-in
/// is a handful of routers, not a public web tier) and dispatches each
/// request to a small shared worker pool. Responses are written in
/// COMPLETION order, each echoing its request's correlation id, so a
/// multiplexing client is never head-of-line blocked behind a slow
/// request. Destruction stops and joins everything.
class ShardListener {
 public:
  /// Maps one full request frame to one full response frame (both
  /// include the length prefix). Returning an EMPTY string drops the
  /// connection without answering — the fault-injection hook the
  /// socket tests use to simulate a mid-query connection kill.
  using Handler = std::function<std::string(const std::string&)>;

  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral: the OS picks, endpoint() reports the real one.
    uint16_t port = 0;
    /// Worker threads running `handler` (shared across connections).
    /// This is the server-side concurrency of one listener: multiplexed
    /// requests on one connection execute on up to this many cores, and
    /// replies overtake slower requests (out-of-order completion).
    size_t handler_threads = 4;
    /// When non-null, the listener answers kStatsRequest frames itself
    /// with a kStatsReply carrying this registry's RenderText() — the
    /// wire-level scrape endpoint (scripts/scrape_cluster_stats.sh).
    /// Null: stats frames fall through to `handler` like any other type
    /// (ShardServer answers a typed kError partial). Served inline on
    /// the connection thread, never queued behind query handling.
    std::shared_ptr<telemetry::MetricRegistry> registry;
  };

  /// Binds and starts accepting immediately; throws StatusException
  /// (kUnavailable) if the address cannot be bound.
  ShardListener(Handler handler, const Options& options);
  ~ShardListener();

  ShardListener(const ShardListener&) = delete;
  ShardListener& operator=(const ShardListener&) = delete;

  Endpoint endpoint() const { return Endpoint{options_.host, port_}; }

  /// Stops accepting, severs every live connection and joins all
  /// threads (the worker pool included). Idempotent; the destructor
  /// calls it.
  void Stop();

  /// Fault injection / connection management: shuts down every LIVE
  /// connection (in-flight reads see EOF) but keeps accepting new ones.
  void CloseConnections();

  struct Stats {
    uint64_t accepted = 0;
    uint64_t frames = 0;      ///< Well-framed requests dispatched.
    uint64_t bad_frames = 0;  ///< Length-prefix violations (conn dropped).
    uint64_t dropped = 0;     ///< Connections dropped by the handler hook.
  };
  Stats stats() const;

 private:
  /// Shared connection state: workers write responses under `write_mu`
  /// while the connection thread keeps reading. The fd is closed by the
  /// LAST owner (worker or connection thread) via the destructor, so a
  /// queued response can never write into a recycled fd number.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    const int fd;
    dbsa::Mutex write_mu;  ///< Serializes whole response frames onto fd.
    std::atomic<bool> open{true};
  };
  struct Work {
    std::shared_ptr<Conn> conn;
    std::string frame;
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Conn> conn);
  void WorkerLoop();
  void RegisterConn(int fd);
  void UnregisterConn(int fd);

  Handler handler_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  dbsa::Mutex stop_mu_;  ///< Serializes concurrent Stop() calls (join is not).
  std::thread accept_thread_;

  dbsa::Mutex conns_mu_;
  dbsa::CondVar conns_cv_;  ///< Signals: a connection thread retired.
  std::unordered_set<int> live_fds_ DBSA_GUARDED_BY(conns_mu_);
  size_t live_threads_ DBSA_GUARDED_BY(conns_mu_) = 0;

  /// Handler dispatch queue (bounded: a flooding client blocks its
  /// connection thread, not the process).
  dbsa::Mutex work_mu_;
  dbsa::CondVar work_cv_;   ///< Workers wait here.
  dbsa::CondVar space_cv_;  ///< Connection threads wait here.
  std::deque<Work> work_ DBSA_GUARDED_BY(work_mu_);
  bool workers_stop_ DBSA_GUARDED_BY(work_mu_) = false;
  std::vector<std::thread> workers_;
  static constexpr size_t kMaxQueuedWork = 1024;
  static constexpr int kBacklog = 64;
  /// Budget for writing one response back. A client that stops draining
  /// its socket would otherwise pin a worker (and the response buffer)
  /// in an unbounded send; the connection is dropped instead.
  static constexpr int kWriteTimeoutMs = 30000;
  /// Cap on simultaneously served connections (thread-per-connection:
  /// this bounds the thread count). Connections accepted past the cap
  /// are closed at once; the listener keeps serving the rest.
  static constexpr size_t kMaxConnections = 256;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// Blocking server entry point: serves `handler` on `options` until
/// `*stop` becomes true (polled ~10 Hz). `on_listening`, when non-null,
/// receives the bound endpoint once the socket is accepting (the
/// "listening on ..." line of shard_server_main, a port-handoff for
/// tests). Returns the final stats. Throws StatusException if the
/// address cannot be bound.
ShardListener::Stats ServeShard(
    ShardListener::Handler handler, const ShardListener::Options& options,
    const std::atomic<bool>& stop,
    const std::function<void(const Endpoint&)>& on_listening = nullptr);

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_SOCKET_TRANSPORT_H_
