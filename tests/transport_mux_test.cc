// Multiplexing hammer for the async socket transport: MANY tagged
// requests in flight on ONE persistent connection per shard, answered by
// a worker-pool listener whose replies complete OUT OF ORDER (slow
// requests are overtaken by fast ones on the same socket). The tests pin
// the correlation contract end to end:
//
//   * every reply pairs with exactly the request that asked for it —
//     each request carries a unique nonce and the handler echoes a
//     transform of it, so any cross-wired correlation id produces a
//     visible payload mismatch, not a silent success;
//   * concurrent blocking Roundtrip() callers and direct async Send()
//     callers share the connection safely (this file runs under TSan
//     and ASan/UBSan in CI);
//   * a reply overtaking an earlier, slower request really is delivered
//     first (out-of-order completion, forced deterministically by
//     stalling one request in the handler).
//
// docs/wire-format.md §correlation documents the rules exercised here.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/placement.h"
#include "service/socket_transport.h"
#include "service/transport.h"
#include "transport_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::Roundtrip;

/// The handler's visible transform: replies carry nonce ^ kEchoMask, so
/// an echoed-back request (or a reply meant for another nonce) can never
/// masquerade as the right answer.
constexpr uint64_t kEchoMask = 0xa5a5a5a5a5a5a5a5ull;

std::string NonceRequest(uint64_t nonce) {
  WireWriter w;
  w.U64(nonce);
  return w.TakeFramed(MessageType::kScatterRequest);
}

/// Decodes the nonce out of a reply frame; 0 on malformed frames (test
/// nonces are never 0).
uint64_t ReplyNonce(const std::string& frame) {
  MessageType type;
  const char* payload = nullptr;
  size_t payload_size = 0;
  if (!ParseFrame(frame, &type, &payload, &payload_size).ok()) return 0;
  WireReader reader(payload, payload_size);
  const uint64_t nonce = reader.U64();
  return reader.ok() ? nonce : 0;
}

/// An echo listener: reads the request nonce, stalls `stall_ms` when the
/// nonce's low bits say so (the out-of-order forcing function), answers
/// nonce ^ kEchoMask. Handler threads make the stalls overlap.
struct EchoCluster {
  explicit EchoCluster(size_t handler_threads, int stall_ms = 0,
                       uint64_t stall_mask = 0) {
    ShardListener::Options options;
    options.handler_threads = handler_threads;
    listener = std::make_unique<ShardListener>(
        [stall_ms, stall_mask](const std::string& request) {
          const uint64_t nonce = ReplyNonce(request);  // Same frame shape.
          if (stall_ms > 0 && stall_mask != 0 && (nonce & stall_mask) != 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          }
          WireWriter w;
          w.U64(nonce ^ kEchoMask);
          return w.TakeFramed(MessageType::kGatherPartial);
        },
        options);
    placement.Add(listener->endpoint());
  }

  std::unique_ptr<ShardListener> listener;
  ShardPlacement placement;
};

TEST(TransportMuxTest, ConcurrentRoundtripsCorrelateExactly) {
  // 8 client threads hammer one shard through the blocking wrapper; the
  // mux interleaves all of them on one connection. Every reply must
  // carry ITS caller's nonce — a single swapped correlation id fails
  // loudly here.
  EchoCluster cluster(/*handler_threads=*/4, /*stall_ms=*/2,
                      /*stall_mask=*/0x3);  // ~3/4 of requests stall 2ms.
  SocketTransport transport(cluster.placement);

  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 50;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t nonce = (uint64_t{t} << 32) | (i + 1);
        try {
          const std::string reply = Roundtrip(transport, 0, NonceRequest(nonce));
          if (ReplyNonce(reply) != (nonce ^ kEchoMask)) mismatches.fetch_add(1);
        } catch (const StatusException&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  const SocketTransport::Stats stats = transport.stats();
  EXPECT_EQ(stats.messages, kThreads * kPerThread);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  // One persistent connection carried everything: no per-request dials.
  EXPECT_EQ(stats.dials, 1u);
}

TEST(TransportMuxTest, AsyncSendsCompleteOutOfOrderWithExactPairing) {
  // Direct Send() path: one stalled request issued FIRST must be
  // overtaken by every later request — deterministic out-of-order
  // completion on a single connection — and still pair correctly.
  constexpr int kStallMs = 300;
  constexpr uint64_t kStallBit = uint64_t{1} << 62;
  EchoCluster cluster(/*handler_threads=*/4, kStallMs, kStallBit);
  SocketTransport transport(cluster.placement);

  constexpr size_t kFast = 32;
  struct Completions {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::pair<uint64_t, uint64_t>> order;  ///< (nonce, reply).
    size_t failed = 0;
  } done;
  const auto send_one = [&](uint64_t nonce) {
    transport.Send(0, NonceRequest(nonce),
                   [&done, nonce](StatusOr<std::string> result) {
                     std::lock_guard<std::mutex> lock(done.mu);
                     if (result.ok()) {
                       done.order.emplace_back(nonce, ReplyNonce(result.value()));
                     } else {
                       ++done.failed;
                     }
                     done.cv.notify_one();
                   });
  };

  const uint64_t slow_nonce = kStallBit | 1;
  send_one(slow_nonce);  // Issued first, answers last.
  for (uint64_t i = 0; i < kFast; ++i) send_one(i + 2);

  std::unique_lock<std::mutex> lock(done.mu);
  ASSERT_TRUE(done.cv.wait_for(lock, std::chrono::seconds(30), [&]() {
    return done.order.size() + done.failed == kFast + 1;
  })) << "completions lost: " << done.order.size() << " + " << done.failed;
  EXPECT_EQ(done.failed, 0u);

  // Exact pairing for every single completion.
  for (const auto& [nonce, reply] : done.order) {
    EXPECT_EQ(reply, nonce ^ kEchoMask) << "nonce " << nonce;
  }
  // The stalled first request completed dead last: every fast reply
  // overtook it on the same connection.
  ASSERT_FALSE(done.order.empty());
  EXPECT_EQ(done.order.back().first, slow_nonce)
      << "expected the stalled request to finish after all fast ones";
  EXPECT_EQ(transport.stats().messages, kFast + 1);
}

}  // namespace
}  // namespace dbsa::service
