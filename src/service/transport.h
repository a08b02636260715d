// The shard-server message seam: a byte-level wire format plus the
// transport abstraction the distribution rehearsal runs over.
//
// ShardedState (core/sharded_state.h) already isolates shards behind
// independent EngineState slices with clean scatter/gather seams — the
// routed cell slice of PruneCellsForShard going out, a CellAggregate or
// keyed id list coming back, merged in ascending shard order. This header
// turns those seams into explicit serialized messages:
//
//   ScatterRequest   query kind, epsilon level, optional approximation
//                    identity (the per-shard cache key) and the routed
//                    cell span for ONE shard;
//   GatherPartial    the shard's partial answer — cell aggregates for
//                    aggregations/counts, (leaf key, global id) pairs for
//                    selections — or a typed error / not-cached signal;
//   ScatterBatch,    several of the above for one shard in one frame, so
//   GatherBatch      a query that probes many approximations sends one
//                    frame per shard per wave.
//
// The NORMATIVE byte-level spec — offsets, field tables, acceptance
// rules, compatibility policy — is docs/wire-format.md; this comment is
// the summary. Wire format invariants (tested in transport_test.cc):
//
//   * every message is length-prefixed, versioned and correlated:
//       [u32 length][u16 magic 0xDB5A][u8 version][u8 type]
//       [u64 correlation][payload]
//     where `length` counts every byte after the length field, so a
//     stream transport can frame messages without understanding them;
//   * all integers are little-endian fixed-width; doubles travel as their
//     IEEE-754 bit pattern (bit-exact round trip — the byte-identity
//     contract of the sharded engine survives serialization, including
//     the compensated SUM pairs of CellAggregate);
//   * decoding is total: truncated, oversized, version-skewed or
//     corrupted bytes produce a typed Status, never undefined behaviour
//     (cell ids are validated against the CellId invariants before any
//     bit-twiddling touches them);
//   * unknown trailing payload bytes are rejected — a frame must be
//     consumed exactly;
//   * version 5 (current) keeps the v4 multiplexed envelope — a u64
//     correlation id on every frame, replies paired by id, never by
//     stream position — and adds a u64 serving EPOCH to every
//     ScatterRequest and GatherPartial payload: a client pinned to epoch
//     E is rejected typed (kFailedPrecondition) by a server loaded at a
//     different epoch, so read-your-epoch holds across failover
//     (docs/snapshot-format.md). Versions 1–4 are rejected with
//     StatusCode::kUnimplemented — total, typed, never UB — since an
//     older peer would misread the epoch field as payload (and vice
//     versa).
//
// The Transport interface is asynchronous and multiplexed: Send starts
// one tagged request and the completion callback delivers the framed
// reply (or a typed Status) when it lands, so one connection per shard
// carries many in-flight requests instead of one blocked thread each.
// LoopbackTransport is the in-process implementation (request and
// response still cross the byte format, so the rehearsal exercises the
// full seam); a real RPC transport drops in by implementing Send.

#ifndef DBSA_SERVICE_TRANSPORT_H_
#define DBSA_SERVICE_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "join/point_index_join.h"
#include "query/error_bound.h"
#include "raster/hierarchical_raster.h"
#include "service/approx_cache.h"
#include "telemetry/metrics.h"
#include "util/determinism.h"
#include "util/status.h"

namespace dbsa::service {

// ---------------------------------------------------------------- wire
// Primitive little-endian encoding helpers. WireReader is bounds-checked:
// any read past the end flips ok() and returns zeros, so decoders can
// validate once at the end instead of after every field.

inline constexpr uint16_t kWireMagic = 0xDB5A;
/// Version 5: the v4 envelope with a u64 serving-epoch field on every
/// ScatterRequest and GatherPartial payload (read-your-epoch across
/// failover; see docs/snapshot-format.md). Decoders reject every other
/// version with a typed status.
inline constexpr uint8_t kWireVersion = 5;

/// Envelope field layout, as byte offsets from the start of a framed
/// message: [u32 length][u16 magic][u8 version][u8 type][u64 correlation].
/// The length field counts everything AFTER itself (header remainder +
/// payload), so a framed message is kWireLengthSize + length bytes long.
inline constexpr size_t kWireLengthSize = sizeof(uint32_t);
/// Largest length field either end of a stream accepts. A larger claim
/// is not a frame of ours but a desynchronized or hostile stream.
inline constexpr size_t kMaxFrameBytes = size_t{64} << 20;
inline constexpr size_t kWireMagicOffset = kWireLengthSize;
inline constexpr size_t kWireVersionOffset =
    kWireMagicOffset + sizeof(kWireMagic);
inline constexpr size_t kWireTypeOffset =
    kWireVersionOffset + sizeof(kWireVersion);
inline constexpr size_t kWireCorrelationOffset =
    kWireTypeOffset + sizeof(uint8_t);  // The type byte.
inline constexpr size_t kWireEnvelopeSize =
    kWireCorrelationOffset + sizeof(uint64_t);
/// What the length field itself counts for an empty payload.
inline constexpr size_t kWireHeaderAfterLength =
    kWireEnvelopeSize - kWireLengthSize;

// The layout above is normative: every encoder, decoder, correlation
// patcher and type-byte peek in the codebase (and the external processes
// on the other end of the socket) agrees on these exact offsets, and
// docs/wire-format.md documents them as numbers. Freeze them — a drifted
// field size or a reordered header must fail the build, not corrupt a
// conversation with a peer that framed yesterday's layout.
static_assert(kWireMagicOffset == 4, "wire envelope: magic moved");
static_assert(kWireVersionOffset == 6, "wire envelope: version moved");
static_assert(kWireTypeOffset == 7, "wire envelope: type moved");
static_assert(kWireCorrelationOffset == 8, "wire envelope: correlation moved");
static_assert(kWireEnvelopeSize == 16, "wire envelope: size changed");
static_assert(kWireHeaderAfterLength == 12,
              "wire envelope: length field no longer counts 12 header bytes");
static_assert(kWireMagic == 0xDB5A, "wire magic changed");
static_assert(kWireVersion == 5, "wire version changed — update the asserts "
                                 "and docs/wire-format.md together");

enum class MessageType : uint8_t {
  kScatterRequest = 1,
  kGatherPartial = 2,
  kStatsRequest = 3,  ///< Admin: scrape the server's MetricRegistry.
  kStatsReply = 4,    ///< Admin: Prometheus text exposition bytes.
  kScatterBatch = 5,  ///< Several ScatterRequest frames for one shard.
  kGatherBatch = 6,   ///< The GatherPartial frames answering a ScatterBatch.
};

/// Number of MessageType values (wire types number 1..kMessageTypeCount;
/// zero is reserved as never-valid). Non-switch dispatch sites — frame
/// type validation, the listener's type-byte peek — pin this with an
/// adjacent static_assert so a new frame type is a compile error at
/// every site that must learn to route it.
inline constexpr int kMessageTypeCount = 6;
static_assert(static_cast<int>(MessageType::kGatherBatch) == kMessageTypeCount,
              "MessageType grew: bump kMessageTypeCount, then fix every "
              "static_assert(kMessageTypeCount == ...) handling site and "
              "docs/wire-format.md");

/// Serializes payload fields. Deliberately field-wise: the only way to
/// put bytes on the wire is one arithmetic/enum primitive at a time
/// (util::StoreWire rejects whole structs at compile time) or an
/// explicit length-counted byte string. Struct padding therefore cannot
/// reach a frame — the layout on the wire is the one docs/wire-format.md
/// spells, never whatever the host ABI happened to pack.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I32(int32_t v) { Put(v); }
  /// IEEE-754 bit pattern — bit-exact round trip.
  void F64(double v) { Put(util::BitCast<uint64_t>(v)); }
  /// Opaque byte strings (error text, stats expositions) — callers
  /// always write a length field first. Typed char*-only so this is not
  /// a struct escape hatch: `w.Bytes(&some_struct, sizeof(...))` would
  /// put padding bytes on the wire without any memcpy token for
  /// check_determinism.sh to see, so the deleted overload makes it a
  /// compile error instead.
  void Bytes(const char* data, size_t n) { out_.append(data, n); }
  template <typename T>
  void Bytes(const T*, size_t) = delete;  // field-wise encode via U8/.../F64

  const std::string& payload() const { return out_; }

  /// Wraps the accumulated payload in a framed message and resets.
  /// Encoders frame with correlation 0 by default; the transport stamps a
  /// unique id at Send time (PatchCorrelation), and a server echoes the
  /// request's id on the reply.
  std::string TakeFramed(MessageType type, uint64_t correlation = 0);

 private:
  /// Values are written in host order; the supported targets are
  /// little-endian (a static_assert here would be the place to widen
  /// this). StoreWire statically rejects non-primitive T.
  template <typename T>
  void Put(const T& v) {
    char buf[sizeof(T)];
    util::StoreWire(buf, v);
    out_.append(buf, sizeof(T));
  }

  std::string out_;
};

/// Bounds-checked field-wise decoder: any read past the end flips ok()
/// and returns zeros, so decoders can validate once at the end instead
/// of after every field. Like WireWriter, reads are typed primitives or
/// length-counted byte strings — a frame is never read through a struct
/// layout.
class WireReader {
 public:
  WireReader(const void* data, size_t n)
      : p_(static_cast<const uint8_t*>(data)), n_(n) {}
  explicit WireReader(const std::string& bytes) : WireReader(bytes.data(), bytes.size()) {}

  uint8_t U8() { return Take<uint8_t>(); }
  uint16_t U16() { return Take<uint16_t>(); }
  uint32_t U32() { return Take<uint32_t>(); }
  uint64_t U64() { return Take<uint64_t>(); }
  int32_t I32() { return Take<int32_t>(); }
  double F64() { return util::BitCast<double>(Take<uint64_t>()); }
  /// The next `n` bytes as an opaque byte string (callers read a length
  /// field first); empty, with ok() false, if fewer than `n` remain.
  std::string Bytes(size_t n) {
    if (!ok_ || n_ - pos_ < n) {
      ok_ = false;
      return std::string();
    }
    std::string bytes(static_cast<const char*>(static_cast<const void*>(p_ + pos_)), n);
    pos_ += n;
    return bytes;
  }

  /// True iff every read so far was in bounds.
  bool ok() const { return ok_; }
  /// True iff the payload was consumed exactly (no trailing bytes).
  bool AtEnd() const { return ok_ && pos_ == n_; }
  size_t remaining() const { return n_ - pos_; }

 private:
  template <typename T>
  T Take() {
    if (!ok_ || n_ - pos_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    const T v = util::LoadWire<T>(p_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Parses a frame header; on success points `payload` into `bytes` and
/// (when `correlation` is non-null) yields the frame's correlation id.
/// Rejects short frames, length mismatches and bad magic with
/// kInvalidArgument, and version skew (v1–v3 included) with
/// kUnimplemented — so a router can tell "corrupt bytes" from "peer
/// speaks another version" without parsing error text. The version check
/// runs BEFORE the correlation field is read, so a short frame of an
/// older (correlation-free) version still rejects as version skew, not
/// as truncation.
Status ParseFrame(const std::string& bytes, MessageType* type,
                  const char** payload, size_t* payload_size,
                  uint64_t* correlation = nullptr);

/// The stream framing window, enforced by every reader of a byte stream
/// before it buffers a frame: OK iff `length` lies in [4, kMaxFrameBytes].
/// The lower end is magic+version+type, so a frame of any version still
/// reaches ParseFrame and gets its typed skew rejection. Otherwise
/// kInvalidArgument: the stream cannot be resynchronized and the caller
/// must drop the connection.
Status CheckFrameLength(uint32_t length);

/// Reads the correlation id of a framed message without validating the
/// rest of the envelope (0 if the frame is too short to carry one).
/// Demux loops use this to pair an arriving reply with its pending
/// request before — and regardless of — payload decoding.
uint64_t PeekCorrelation(const std::string& frame);

/// Overwrites the correlation id field of a framed message in place.
/// No-op if the frame is too short to carry one.
void PatchCorrelation(std::string* frame, uint64_t correlation);

// ------------------------------------------------------------- messages

/// One shard's slice of a scattered query. Cells, when present, are the
/// exact output of ShardedState::PruneCellsForShard for this shard — the
/// in-process seam re-expressed as a payload. When `has_cells` is false
/// the request references the shard's cached slice for (object, level)
/// instead of shipping it (the per-shard HR cache hit path); the server
/// answers kNotCached if it no longer holds the entry.
struct ScatterRequest {
  enum class Kind : uint8_t {
    kAggregateCells = 0,  ///< GatherPartial carries a CellAggregate.
    kSelectIds = 1,       ///< GatherPartial carries (leaf key, id) pairs.
    kWarm = 2,            ///< Cache the cells; no execution.
  };
  /// Pinned at every Kind dispatch (encoder, decoder, server handler) by
  /// an adjacent static_assert — a new request kind must visit each.
  static constexpr int kKindCount = 3;

  Kind kind = Kind::kAggregateCells;
  /// The query's distance-bound contract as submitted (v2 envelope
  /// provenance: a shard can log/account the bound regime it served
  /// under). The SERVING resolution is `level` below; warm requests
  /// carry the level as a kGridLevel bound.
  query::BoundKind bound_kind = query::BoundKind::kGridLevel;
  double bound_epsilon = 0.0;
  /// Epsilon level of the approximation (half of the cache key).
  int32_t level = 0;
  /// Checksum of the FULL approximation the cells were pruned from
  /// (ApproxChecksum in shard_server.h). Stored with cached slices and
  /// compared on reference requests, so a stale or colliding cache entry
  /// is detected instead of silently reused.
  uint64_t checksum = 0;
  /// Trace identity (v3): the submitting query's 128-bit trace id and the
  /// client-side span this request descends from. All-zero means
  /// untraced; servers record their spans under this id either way and
  /// never branch execution on it (observe-only contract).
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  /// Serving epoch the client is pinned to (v5). Zero means "any epoch"
  /// — a client that never loaded a snapshot accepts whatever the server
  /// serves. Non-zero: a server whose own serving epoch differs rejects
  /// the request with a typed kFailedPrecondition partial, so a failover
  /// to a stale replica can never silently answer from another dataset
  /// generation (read-your-epoch; docs/snapshot-format.md).
  uint64_t epoch = 0;
  /// Identity of the approximation the cells came from (region index or
  /// ad-hoc polygon fingerprint — the ApproxCache key space).
  bool has_object = false;
  ObjectKey object;
  /// Routed cell span for this shard.
  bool has_cells = false;
  std::vector<raster::HrCell> cells;

  std::string Encode() const;
  /// Total: any malformed input yields a non-OK status (kUnimplemented
  /// for version skew, kInvalidArgument otherwise), never UB.
  static Status Decode(const std::string& bytes, ScatterRequest* out);
};

/// One shard's partial answer, merged client-side in ascending shard
/// order (the canonical gather of the merge-identity contract).
struct GatherPartial {
  enum class Disposition : uint8_t {
    kOk = 0,
    kError = 1,      ///< `code` + `error` carry the typed failure.
    kNotCached = 2,  ///< Cache reference missed; resend with cells.
  };
  /// Pinned at the disposition dispatches (ToStatus, wire validation).
  static constexpr int kDispositionCount = 3;

  ScatterRequest::Kind kind = ScatterRequest::Kind::kAggregateCells;
  Disposition status = Disposition::kOk;
  /// The answering server's serving epoch (v5), echoed on EVERY partial
  /// — OK, error and not-cached alike — so a client can observe which
  /// dataset generation produced the answer (and an epoch-skew rejection
  /// names the server's epoch without parsing error text).
  uint64_t epoch = 0;
  /// Typed error of a non-OK partial — wire errors round-trip as
  /// StatusCode values, not as text to be re-parsed.
  StatusCode code = StatusCode::kOk;
  std::string error;
  /// kAggregateCells: the shard's cell aggregate (doubles bit-exact,
  /// compensated SUM pairs included).
  join::CellAggregate aggregate;
  /// kSelectIds: (base-grid leaf key, base-table row id), strictly
  /// ascending — one gather run; Decode rejects any other order.
  std::vector<std::pair<uint64_t, uint32_t>> keyed_ids;
  /// kSelectIds: cells of the slice the shard probed — reported even on
  /// cache-reference hits (the server knows its slice size when the
  /// router deliberately does not), so ExecStats::query_cells keeps the
  /// per-shard-slice accounting selects share with aggregates/counts.
  uint64_t probe_cells = 0;
  /// kWarm: number of cells now cached for the key.
  uint64_t cells_cached = 0;

  /// The typed status of this partial (OK for kOk; kNotCached maps to
  /// kNotFound unless the server set a code).
  dbsa::Status ToStatus() const;
  /// Builds an error partial from a status (never from an OK one).
  static GatherPartial FromStatus(ScatterRequest::Kind kind, Disposition disp,
                                  const dbsa::Status& status);

  std::string Encode() const;
  /// Total: any malformed input yields a non-OK status, never UB.
  static dbsa::Status Decode(const std::string& bytes, GatherPartial* out);
};

/// A batch frame carries several complete bare frames for one shard, so a
/// query that probes many approximations costs one frame per shard per
/// wave instead of one per approximation and shard. Payload:
///
///   [u32 count][count × {u32 length, frame}]
///
/// Every entry is a whole v5 frame with its own envelope — ScatterRequest
/// frames in a ScatterBatch, GatherPartial frames in a GatherBatch — so
/// the bare decoders validate each entry unchanged, and a batch nested in
/// a batch fails their type check. Decoding rejects, with
/// kInvalidArgument, a zero count, a count the payload cannot hold
/// (checked before anything is reserved), an entry running past the
/// payload, an entry its own decoder rejects, and trailing bytes. A shard
/// answers a ScatterBatch with a GatherBatch of the same length, entry i
/// answering request i. A router sends a single entry as its bare frame,
/// never as a batch of one.
struct ScatterBatch {
  std::vector<ScatterRequest> requests;

  std::string Encode() const;
  static Status Decode(const std::string& bytes, ScatterBatch* out);
};

struct GatherBatch {
  std::vector<GatherPartial> partials;

  std::string Encode() const;
  static Status Decode(const std::string& bytes, GatherBatch* out);
};

/// Frames already-encoded bare frames as one batch of `type`
/// (kScatterBatch or kGatherBatch), in order; what the batch Encodes
/// call, for callers that hold their entries encoded.
std::string EncodeBatch(MessageType type, const std::vector<std::string>& frames);

/// Admin frame (v3+): asks a shard process for its MetricRegistry. Empty
/// payload by design — a scraper needs no state to ask.
struct StatsRequest {
  std::string Encode() const;
  static dbsa::Status Decode(const std::string& bytes, StatsRequest* out);
};

/// Admin reply (v3+): the Prometheus text exposition of the serving
/// process's registry. Opaque bytes on the wire (length-prefixed), so the
/// exposition format can evolve without a wire revision.
struct StatsReply {
  std::string text;

  std::string Encode() const;
  static dbsa::Status Decode(const std::string& bytes, StatsReply* out);
};

// ------------------------------------------------------------ transport

/// Asynchronous multiplexed message transport to a set of shard servers.
/// Implementations must be thread-safe: the router fans scatter requests
/// out across the service pool, and many queries keep requests in flight
/// on the same shard concurrently.
class Transport {
 public:
  /// Completion callback: the framed response, or the typed transport
  /// failure. Invoked exactly once per Send — possibly inline on the
  /// sending thread (loopback), possibly on a transport-owned demux
  /// thread (sockets) — and must not throw.
  using Done = std::function<void(StatusOr<std::string>)>;

  virtual ~Transport() = default;

  virtual size_t num_shards() const = 0;

  /// Starts one framed request to shard `shard` and returns the
  /// correlation id the transport stamped into its envelope (the same id
  /// the reply will carry). `done` fires exactly once with the framed
  /// response or a typed Status; destruction of the transport completes
  /// every still-pending request with kUnavailable before returning.
  virtual uint64_t Send(size_t shard, std::string request, Done done) = 0;

  /// Unused; kept only because perfbench's TracingTransport overrides it.
  virtual double CostPerMessage() const { return 0.0; }
};

/// In-process transport: requests are handed to per-shard handler
/// functions (ShardServer::Handle bound by the service) on the calling
/// thread, so completion is always inline. The bytes still cross the
/// full wire format — correlation id stamped and echoed included — so
/// loopback execution exercises exactly the seam a remote deployment
/// would.
class LoopbackTransport : public Transport {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  /// Counters live in `registry` under dbsa_loopback_* names (one scrape
  /// covers the transport); a null registry gets a private one so
  /// standalone construction keeps working.
  explicit LoopbackTransport(
      std::vector<Handler> handlers,
      std::shared_ptr<telemetry::MetricRegistry> registry = nullptr);

  size_t num_shards() const override { return handlers_.size(); }
  uint64_t Send(size_t shard, std::string request, Done done) override;

 private:
  std::vector<Handler> handlers_;
  std::shared_ptr<telemetry::MetricRegistry> registry_;
  telemetry::Counter* messages_;
  telemetry::Counter* request_bytes_;
  telemetry::Counter* response_bytes_;
  std::atomic<uint64_t> next_correlation_{1};
};

}  // namespace dbsa::service

#endif  // DBSA_SERVICE_TRANSPORT_H_
