// Tests for the shard-server wire format and transport abstraction:
// bit-exact round trips (the byte-identity contract must survive
// serialization, compensated SUM pairs included), total decoding
// (truncated / corrupted / version-skewed bytes are rejected with a
// typed Status, never undefined behaviour — this test runs under
// ASan+UBSan in CI), v1–v3 frame rejection, the v3 trace-identity
// fields, the v4 correlation envelope, the kStatsRequest/kStatsReply
// admin frames, the ScatterBatch/GatherBatch frames, and the loopback
// dispatch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "raster/cell_id.h"
#include "service/transport.h"
#include "transport_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::Roundtrip;

TEST(WireTest, PrimitiveRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I32(-42);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::denorm_min());
  w.F64(1.0 / 3.0);

  WireReader r(w.payload());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I32(), -42);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // Bit pattern, not value, travels.
  EXPECT_EQ(r.F64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.F64(), 1.0 / 3.0);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, ReaderIsBoundsChecked) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.payload());
  EXPECT_EQ(r.U64(), 0u);  // Overruns: returns zero, flips ok().
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // Stays failed.
  EXPECT_FALSE(r.AtEnd());
}

TEST(WireTest, FrameRoundTripAndRejection) {
  WireWriter w;
  w.U32(12345);
  const std::string framed = w.TakeFramed(MessageType::kScatterRequest);

  MessageType type;
  const char* payload = nullptr;
  size_t payload_size = 0;
  ASSERT_TRUE(ParseFrame(framed, &type, &payload, &payload_size).ok());
  EXPECT_EQ(type, MessageType::kScatterRequest);
  ASSERT_EQ(payload_size, 4u);
  EXPECT_EQ(WireReader(payload, payload_size).U32(), 12345u);

  // Every strict prefix must be rejected (framing or header error).
  for (size_t len = 0; len < framed.size(); ++len) {
    const Status s = ParseFrame(framed.substr(0, len), &type, &payload,
                                &payload_size);
    EXPECT_FALSE(s.ok()) << "prefix " << len;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "prefix " << len;
  }
  // Trailing garbage breaks the length invariant.
  EXPECT_EQ(ParseFrame(framed + "x", &type, &payload, &payload_size).code(),
            StatusCode::kInvalidArgument);
  // Bad magic.
  std::string bad = framed;
  bad[4] ^= 0x5a;
  EXPECT_EQ(ParseFrame(bad, &type, &payload, &payload_size).code(),
            StatusCode::kInvalidArgument);
  // Version skew is not corruption: typed as kUnimplemented.
  bad = framed;
  bad[6] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(ParseFrame(bad, &type, &payload, &payload_size).code(),
            StatusCode::kUnimplemented);
  // Unknown message type.
  bad = framed;
  bad[7] = 0x7f;
  EXPECT_EQ(ParseFrame(bad, &type, &payload, &payload_size).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, V1FramesAreRejectedWithTypedStatus) {
  // A well-formed VERSION 1 frame (the pre-envelope wire format): header
  // plus a plausible v1 ScatterRequest payload. The v3 decoder must
  // reject it with kUnimplemented — total, typed, never decoded with
  // defaulted contract fields.
  WireWriter payload;
  payload.U8(0);       // kind = kAggregateCells
  payload.U8(0);       // flags
  payload.I32(13);     // level (v1 layout: no bound fields)
  payload.U64(0x11);   // checksum
  WireWriter framed;
  framed.U32(static_cast<uint32_t>(payload.payload().size() + 4));
  framed.U16(kWireMagic);
  framed.U8(1);  // version 1
  framed.U8(static_cast<uint8_t>(MessageType::kScatterRequest));
  framed.Bytes(payload.payload().data(), payload.payload().size());
  const std::string v1_frame = framed.payload();

  ScatterRequest out;
  const Status s = ScatterRequest::Decode(v1_frame, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
  GatherPartial partial;
  EXPECT_EQ(GatherPartial::Decode(v1_frame, &partial).code(),
            StatusCode::kUnimplemented);
}

TEST(WireTest, V2FramesAreRejectedWithTypedStatus) {
  // A well-formed VERSION 2 frame: the v2 ScatterRequest layout (no
  // trace-identity fields between checksum and the object flag). The v3
  // decoder must reject it on the version byte with kUnimplemented —
  // NEVER decode the object key out of what are actually trace bytes.
  WireWriter payload;
  payload.U8(0);      // kind = kAggregateCells
  payload.U8(0);      // flags (no object, no cells)
  payload.U8(0);      // bound_kind
  payload.F64(0.25);  // bound_epsilon
  payload.I32(13);    // level
  payload.U64(0x11);  // checksum (v2 layout: object flag follows directly)
  WireWriter framed;
  framed.U32(static_cast<uint32_t>(payload.payload().size() + 4));
  framed.U16(kWireMagic);
  framed.U8(2);  // version 2
  framed.U8(static_cast<uint8_t>(MessageType::kScatterRequest));
  framed.Bytes(payload.payload().data(), payload.payload().size());
  const std::string v2_frame = framed.payload();

  ScatterRequest out;
  EXPECT_EQ(ScatterRequest::Decode(v2_frame, &out).code(),
            StatusCode::kUnimplemented);
  GatherPartial partial;
  EXPECT_EQ(GatherPartial::Decode(v2_frame, &partial).code(),
            StatusCode::kUnimplemented);
  StatsRequest stats;
  WireWriter stats_framed;
  stats_framed.U32(4);
  stats_framed.U16(kWireMagic);
  stats_framed.U8(2);
  stats_framed.U8(static_cast<uint8_t>(MessageType::kStatsRequest));
  EXPECT_EQ(StatsRequest::Decode(stats_framed.payload(), &stats).code(),
            StatusCode::kUnimplemented);
}

ScatterRequest MakeRequest(ScatterRequest::Kind kind, bool object, bool cells) {
  ScatterRequest req;
  req.kind = kind;
  req.bound_kind = query::BoundKind::kAbsoluteDistance;
  req.bound_epsilon = 0.1 + 0.2;  // Not exactly 0.3 — bits must survive.
  req.level = 13;
  req.checksum = 0x1122334455667788ull;
  req.trace_hi = 0xfeedface00000001ull;
  req.trace_lo = 0xcafe000000000002ull;
  req.span_id = 0xabad1dea00000003ull;
  if (object) {
    req.has_object = true;
    req.object = ObjectKey(0x8000000000000001ull, 42);
  }
  if (cells) {
    req.has_cells = true;
    req.cells = {{raster::CellId::FromXY(3, 5, 2), true},
                 {raster::CellId::FromXY(10, 1000, 999), false},
                 {raster::CellId::FromXY(raster::CellId::kMaxLevel, 0, 0), true}};
  }
  return req;
}

/// Offset of the first cell id in an object-less, cells-carrying
/// ScatterRequest frame: envelope(16, wire v4: length + magic + version +
/// type + correlation) + kind(1) + flags(1) + bound_kind(1) +
/// bound_epsilon(8) + level(4) + checksum(8) + trace identity (3 × 8) +
/// cell count(4).
constexpr size_t kFirstCellIdOffset = 16 + 1 + 1 + 1 + 8 + 4 + 8 + 24 + 4;

TEST(ScatterRequestTest, RoundTripAllShapes) {
  for (const auto kind :
       {ScatterRequest::Kind::kAggregateCells, ScatterRequest::Kind::kSelectIds,
        ScatterRequest::Kind::kWarm}) {
    for (const bool object : {false, true}) {
      for (const bool cells : {false, true}) {
        const ScatterRequest req = MakeRequest(kind, object, cells);
        ScatterRequest got;
        ASSERT_TRUE(ScatterRequest::Decode(req.Encode(), &got).ok());
        EXPECT_EQ(got.kind, req.kind);
        EXPECT_EQ(got.bound_kind, req.bound_kind);
        EXPECT_EQ(got.bound_epsilon, req.bound_epsilon);
        EXPECT_EQ(got.level, req.level);
        EXPECT_EQ(got.checksum, req.checksum);
        EXPECT_EQ(got.trace_hi, req.trace_hi);
        EXPECT_EQ(got.trace_lo, req.trace_lo);
        EXPECT_EQ(got.span_id, req.span_id);
        EXPECT_EQ(got.has_object, req.has_object);
        EXPECT_EQ(got.object, req.object);
        EXPECT_EQ(got.has_cells, req.has_cells);
        ASSERT_EQ(got.cells.size(), req.cells.size());
        for (size_t i = 0; i < req.cells.size(); ++i) {
          EXPECT_EQ(got.cells[i].id, req.cells[i].id);
          EXPECT_EQ(got.cells[i].boundary, req.cells[i].boundary);
        }
      }
    }
  }
}

TEST(ScatterRequestTest, RejectsInvalidCellIds) {
  const ScatterRequest req = MakeRequest(ScatterRequest::Kind::kAggregateCells,
                                         /*object=*/false, /*cells=*/true);
  std::string bytes = req.Encode();
  // Zero the first cell id: id 0 is invalid (its decoding would hit
  // __builtin_ctzll(0), which is UB — exactly what the validation must
  // prevent).
  std::memset(&bytes[kFirstCellIdOffset], 0, 8);
  ScatterRequest got;
  EXPECT_EQ(ScatterRequest::Decode(bytes, &got).code(),
            StatusCode::kInvalidArgument);

  // An id beyond the 49-bit cell domain is invalid too.
  bytes = req.Encode();
  bytes[kFirstCellIdOffset + 7] = static_cast<char>(0xff);
  EXPECT_EQ(ScatterRequest::Decode(bytes, &got).code(),
            StatusCode::kInvalidArgument);
}

TEST(ScatterRequestTest, TruncationNeverCrashes) {
  // Total decoding: every prefix of a valid message must be cleanly
  // rejected (ASan/UBSan-gated; a sloppy length check would read past
  // the buffer or allocate from a garbage count).
  const ScatterRequest req = MakeRequest(ScatterRequest::Kind::kSelectIds,
                                         /*object=*/true, /*cells=*/true);
  const std::string bytes = req.Encode();
  ScatterRequest got;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ScatterRequest::Decode(bytes.substr(0, len), &got).ok())
        << "prefix " << len;
  }
  // Single-byte corruptions must decode successfully or fail cleanly —
  // flipping bits in the cell payload must never produce UB. (Flips that
  // only toggle object/checksum bytes may still decode fine.)
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    ScatterRequest out;
    (void)ScatterRequest::Decode(corrupt, &out);
  }
}

TEST(GatherPartialTest, AggregateDoublesAreBitExact) {
  GatherPartial partial;
  partial.kind = ScatterRequest::Kind::kAggregateCells;
  partial.aggregate.count = 1234567.0;
  partial.aggregate.sum = 0.1 + 0.2;  // Not exactly 0.3 — bits must survive.
  partial.aggregate.sum_comp = 1e-17;  // Compensation travels bit-exact too.
  partial.aggregate.boundary_count = -0.0;
  partial.aggregate.boundary_sum = std::numeric_limits<double>::denorm_min();
  partial.aggregate.boundary_sum_comp = -1e-33;
  partial.aggregate.query_cells = 77;
  partial.aggregate.searches = 154;

  GatherPartial got;
  ASSERT_TRUE(GatherPartial::Decode(partial.Encode(), &got).ok());
  EXPECT_EQ(got.status, GatherPartial::Disposition::kOk);
  uint64_t want_bits = 0, got_bits = 0;
  std::memcpy(&want_bits, &partial.aggregate.sum, 8);
  std::memcpy(&got_bits, &got.aggregate.sum, 8);
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_EQ(got.aggregate.sum_comp, 1e-17);
  EXPECT_EQ(got.aggregate.boundary_sum_comp, -1e-33);
  EXPECT_EQ(got.aggregate.count, partial.aggregate.count);
  EXPECT_TRUE(std::signbit(got.aggregate.boundary_count));
  EXPECT_EQ(got.aggregate.boundary_sum, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(got.aggregate.query_cells, 77u);
  EXPECT_EQ(got.aggregate.searches, 154u);
}

TEST(GatherPartialTest, SelectWarmAndErrorRoundTrip) {
  GatherPartial select;
  select.kind = ScatterRequest::Kind::kSelectIds;
  select.keyed_ids = {{0, 0}, {42, 7}, {UINT64_MAX, UINT32_MAX}};
  GatherPartial got;
  ASSERT_TRUE(GatherPartial::Decode(select.Encode(), &got).ok());
  EXPECT_EQ(got.keyed_ids, select.keyed_ids);

  GatherPartial warm;
  warm.kind = ScatterRequest::Kind::kWarm;
  warm.cells_cached = 321;
  ASSERT_TRUE(GatherPartial::Decode(warm.Encode(), &got).ok());
  EXPECT_EQ(got.cells_cached, 321u);

  // Errors round-trip TYPED: the StatusCode survives the wire, so the
  // router recovers Status{kInvalidArgument, ...}, not just text.
  const GatherPartial failed = GatherPartial::FromStatus(
      ScatterRequest::Kind::kAggregateCells, GatherPartial::Disposition::kError,
      Status::InvalidArgument("shard on fire"));
  ASSERT_TRUE(GatherPartial::Decode(failed.Encode(), &got).ok());
  EXPECT_EQ(got.status, GatherPartial::Disposition::kError);
  EXPECT_EQ(got.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(got.error, "shard on fire");
  EXPECT_EQ(got.ToStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.ToStatus().message(), "shard on fire");

  const GatherPartial not_cached = GatherPartial::FromStatus(
      ScatterRequest::Kind::kAggregateCells,
      GatherPartial::Disposition::kNotCached, Status::NotFound("slice not cached"));
  ASSERT_TRUE(GatherPartial::Decode(not_cached.Encode(), &got).ok());
  EXPECT_EQ(got.status, GatherPartial::Disposition::kNotCached);
  EXPECT_EQ(got.ToStatus().code(), StatusCode::kNotFound);
}

TEST(GatherPartialTest, SelectPairsMustBeStrictlyAscending) {
  // The router merges each shard's pairs as one ascending run
  // (core::GatherIds), so a run out of (leaf key, row id) order is a
  // malformed partial.
  GatherPartial partial;
  partial.kind = ScatterRequest::Kind::kSelectIds;
  GatherPartial got;
  const std::vector<std::vector<std::pair<uint64_t, uint32_t>>> bad_runs = {
      {{42, 7}, {41, 8}},            // key descends
      {{42, 8}, {42, 7}},            // equal keys, row id descends
      {{40, 1}, {42, 7}, {42, 7}}};  // a repeated pair
  for (const auto& bad : bad_runs) {
    partial.keyed_ids = bad;
    EXPECT_EQ(GatherPartial::Decode(partial.Encode(), &got).code(),
              StatusCode::kInvalidArgument);
  }
  // Equal keys with ascending row ids (one cell holding several points)
  // round-trip.
  partial.keyed_ids = {{42, 7}, {42, 8}, {43, 1}};
  ASSERT_TRUE(GatherPartial::Decode(partial.Encode(), &got).ok());
  EXPECT_EQ(got.keyed_ids, partial.keyed_ids);
}

TEST(GatherPartialTest, RejectsUnknownStatusCode) {
  const GatherPartial failed = GatherPartial::FromStatus(
      ScatterRequest::Kind::kAggregateCells, GatherPartial::Disposition::kError,
      Status::Internal("x"));
  std::string bytes = failed.Encode();
  // Corrupt the status-code byte
  // (envelope(16) + kind(1) + disposition(1) + epoch(8)).
  bytes[26] = static_cast<char>(0x7f);
  GatherPartial got;
  EXPECT_EQ(GatherPartial::Decode(bytes, &got).code(),
            StatusCode::kInvalidArgument);
}

TEST(GatherPartialTest, TruncationNeverCrashes) {
  GatherPartial partial;
  partial.kind = ScatterRequest::Kind::kSelectIds;
  for (uint32_t i = 0; i < 100; ++i) partial.keyed_ids.emplace_back(i * 31, i);
  const std::string bytes = partial.Encode();
  GatherPartial got;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(GatherPartial::Decode(bytes.substr(0, len), &got).ok())
        << "prefix " << len;
  }
}

TEST(ScatterRequestTest, DefaultTraceIsUntraced) {
  // Tracing-off requests carry all-zero trace identity, and it survives
  // the round trip as zero — servers treat zero as "untraced" and must
  // never observe a phantom id.
  ScatterRequest req;
  req.kind = ScatterRequest::Kind::kWarm;
  ScatterRequest got;
  ASSERT_TRUE(ScatterRequest::Decode(req.Encode(), &got).ok());
  EXPECT_EQ(got.trace_hi, 0u);
  EXPECT_EQ(got.trace_lo, 0u);
  EXPECT_EQ(got.span_id, 0u);
}

TEST(StatsFrameTest, RequestRoundTripAndRejection) {
  const StatsRequest req;
  const std::string bytes = req.Encode();
  // A stats request is pure envelope: 4-byte length prefix + 12-byte
  // header (magic, version, type, correlation).
  EXPECT_EQ(bytes.size(), 16u);
  StatsRequest got;
  EXPECT_TRUE(StatsRequest::Decode(bytes, &got).ok());

  // Every strict prefix is rejected...
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(StatsRequest::Decode(bytes.substr(0, len), &got).ok())
        << "prefix " << len;
  }
  // ...as are trailing bytes (the empty-payload invariant is checked).
  EXPECT_EQ(StatsRequest::Decode(bytes + "x", &got).code(),
            StatusCode::kInvalidArgument);
  // A stats request is not a scatter request and vice versa.
  ScatterRequest scatter;
  EXPECT_EQ(ScatterRequest::Decode(bytes, &scatter).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatsRequest::Decode(MakeRequest(ScatterRequest::Kind::kWarm, false,
                                             false)
                                     .Encode(),
                                 &got)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(StatsFrameTest, ReplyRoundTripAndTruncation) {
  StatsReply reply;
  reply.text =
      "# TYPE dbsa_queries_total counter\n"
      "dbsa_queries_total{kind=\"aggregate\"} 7\n";
  const std::string bytes = reply.Encode();
  StatsReply got;
  ASSERT_TRUE(StatsReply::Decode(bytes, &got).ok());
  EXPECT_EQ(got.text, reply.text);

  // Empty exposition is legal (a freshly-started server).
  StatsReply empty;
  ASSERT_TRUE(StatsReply::Decode(empty.Encode(), &got).ok());
  EXPECT_EQ(got.text, "");

  // Total decoding: every prefix rejected, trailing bytes rejected, and
  // a length word pointing past the payload rejected (never a read past
  // the buffer — ASan-gated).
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(StatsReply::Decode(bytes.substr(0, len), &got).ok())
        << "prefix " << len;
  }
  EXPECT_FALSE(StatsReply::Decode(bytes + "x", &got).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    StatsReply out;
    (void)StatsReply::Decode(corrupt, &out);  // Must not crash.
  }
}

// ---- batch frames (types 5 and 6) --------------------------------------

/// A batch payload assembled by hand: `count`, then each entry's length
/// and bytes, then `tail` — so tests can state counts and lengths the
/// entries do not back.
std::string HandBatch(MessageType type, uint32_t count,
                      const std::vector<std::pair<uint32_t, std::string>>& entries,
                      const std::string& tail = "") {
  WireWriter w;
  w.U32(count);
  for (const auto& [length, bytes] : entries) {
    w.U32(length);
    w.Bytes(bytes.data(), bytes.size());
  }
  w.Bytes(tail.data(), tail.size());
  return w.TakeFramed(type);
}

TEST(BatchTest, ScatterBatchRoundTripsOneAndManyEntries) {
  std::vector<ScatterRequest> shapes;
  for (const auto kind :
       {ScatterRequest::Kind::kAggregateCells, ScatterRequest::Kind::kSelectIds,
        ScatterRequest::Kind::kWarm}) {
    for (const bool cells : {false, true}) {
      shapes.push_back(MakeRequest(kind, /*object=*/true, cells));
    }
  }
  // One entry of each shape, then every shape in one batch.
  std::vector<std::vector<ScatterRequest>> batches;
  for (const ScatterRequest& shape : shapes) batches.push_back({shape});
  batches.push_back(shapes);
  for (const std::vector<ScatterRequest>& requests : batches) {
    ScatterBatch batch;
    batch.requests = requests;
    const std::string bytes = batch.Encode();
    MessageType type = MessageType::kScatterRequest;
    const char* payload = nullptr;
    size_t payload_size = 0;
    ASSERT_TRUE(ParseFrame(bytes, &type, &payload, &payload_size).ok());
    EXPECT_EQ(type, MessageType::kScatterBatch);
    // Each entry is the bare frame its request encodes to.
    std::vector<std::string> frames;
    for (const ScatterRequest& request : requests) frames.push_back(request.Encode());
    EXPECT_EQ(EncodeBatch(MessageType::kScatterBatch, frames), bytes);

    ScatterBatch got;
    ASSERT_TRUE(ScatterBatch::Decode(bytes, &got).ok());
    ASSERT_EQ(got.requests.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(got.requests[i].Encode(), frames[i]) << "entry " << i;
    }
    // A batch is not a bare request, and vice versa.
    ScatterRequest bare;
    EXPECT_EQ(ScatterRequest::Decode(bytes, &bare).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ScatterBatch::Decode(frames[0], &got).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BatchTest, GatherBatchRoundTripsOneAndManyEntries) {
  std::vector<GatherPartial> shapes(3);
  shapes[0].kind = ScatterRequest::Kind::kAggregateCells;
  shapes[0].epoch = 9;
  shapes[0].aggregate.count = 12.0;
  shapes[0].aggregate.sum = 0.1 + 0.2;
  shapes[0].aggregate.sum_comp = -1e-17;
  shapes[0].aggregate.query_cells = 3;
  shapes[1].kind = ScatterRequest::Kind::kSelectIds;
  shapes[1].probe_cells = 4;
  shapes[1].keyed_ids = {{1, 9}, {1, 10}, {7, 2}};
  shapes[2].kind = ScatterRequest::Kind::kWarm;
  shapes[2].cells_cached = 5;
  shapes.push_back(GatherPartial::FromStatus(ScatterRequest::Kind::kAggregateCells,
                                             GatherPartial::Disposition::kError,
                                             Status::FailedPrecondition("epoch")));
  shapes.push_back(GatherPartial::FromStatus(ScatterRequest::Kind::kAggregateCells,
                                             GatherPartial::Disposition::kNotCached,
                                             Status::NotFound("slice not cached")));
  std::vector<std::vector<GatherPartial>> batches;
  for (const GatherPartial& shape : shapes) batches.push_back({shape});
  batches.push_back(shapes);
  for (const std::vector<GatherPartial>& partials : batches) {
    GatherBatch batch;
    batch.partials = partials;
    const std::string bytes = batch.Encode();
    GatherBatch got;
    ASSERT_TRUE(GatherBatch::Decode(bytes, &got).ok());
    ASSERT_EQ(got.partials.size(), partials.size());
    for (size_t i = 0; i < partials.size(); ++i) {
      EXPECT_EQ(got.partials[i].Encode(), partials[i].Encode()) << "entry " << i;
    }
    GatherPartial bare;
    EXPECT_EQ(GatherPartial::Decode(bytes, &bare).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BatchTest, RejectsMalformedBatches) {
  const std::string request =
      MakeRequest(ScatterRequest::Kind::kAggregateCells, /*object=*/false,
                  /*cells=*/true)
          .Encode();
  const uint32_t length = static_cast<uint32_t>(request.size());
  ScatterBatch scatter;
  const auto scatter_code = [&](const std::string& bytes) {
    return ScatterBatch::Decode(bytes, &scatter).code();
  };
  // The well-formed baseline.
  ASSERT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, 2,
                                   {{length, request}, {length, request}})),
            StatusCode::kOk);
  // Count 0.
  EXPECT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, 0, {})),
            StatusCode::kInvalidArgument);
  // A count the bytes cannot hold — rejected before anything is
  // reserved, so 4G entries cost nothing.
  EXPECT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, UINT32_MAX,
                                   {{length, request}})),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, 3,
                                   {{length, request}, {length, request}})),
            StatusCode::kInvalidArgument);
  // An entry length that runs past the end.
  EXPECT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, 2,
                                   {{length, request}, {length + 1, request}})),
            StatusCode::kInvalidArgument);
  // An inner frame its own decoder rejects: an invalid cell id ...
  std::string bad_cell = request;
  std::memset(&bad_cell[kFirstCellIdOffset], 0, 8);
  EXPECT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, 2,
                                   {{length, request}, {length, bad_cell}})),
            StatusCode::kInvalidArgument);
  // ... a nested batch, which fails the inner type check ...
  const std::string nested =
      HandBatch(MessageType::kScatterBatch, 1, {{length, request}});
  EXPECT_EQ(scatter_code(HandBatch(
                MessageType::kScatterBatch, 2,
                {{length, request},
                 {static_cast<uint32_t>(nested.size()), nested}})),
            StatusCode::kInvalidArgument);
  // ... and a GatherPartial where a ScatterRequest belongs.
  const std::string partial = GatherPartial().Encode();
  EXPECT_EQ(scatter_code(HandBatch(
                MessageType::kScatterBatch, 1,
                {{static_cast<uint32_t>(partial.size()), partial}})),
            StatusCode::kInvalidArgument);
  // Trailing bytes after the last entry.
  EXPECT_EQ(scatter_code(HandBatch(MessageType::kScatterBatch, 1,
                                   {{length, request}}, "x")),
            StatusCode::kInvalidArgument);
  // The outer frame keeps the envelope's rules: version skew is typed.
  std::string skewed = HandBatch(MessageType::kScatterBatch, 1, {{length, request}});
  skewed[kWireVersionOffset] = 4;
  EXPECT_EQ(scatter_code(skewed), StatusCode::kUnimplemented);

  // A GatherBatch whose select entry's pairs are out of order.
  GatherPartial select;
  select.kind = ScatterRequest::Kind::kSelectIds;
  select.keyed_ids = {{5, 1}, {3, 2}};
  const std::string unordered = select.Encode();
  GatherBatch gather;
  EXPECT_EQ(GatherBatch::Decode(
                HandBatch(MessageType::kGatherBatch, 2,
                          {{static_cast<uint32_t>(partial.size()), partial},
                           {static_cast<uint32_t>(unordered.size()), unordered}}),
                &gather)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchTest, TruncationNeverCrashes) {
  ScatterBatch batch;
  batch.requests = {MakeRequest(ScatterRequest::Kind::kSelectIds, true, true),
                    MakeRequest(ScatterRequest::Kind::kAggregateCells, true, false)};
  const std::string bytes = batch.Encode();
  ScatterBatch got;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ScatterBatch::Decode(bytes.substr(0, len), &got).ok())
        << "prefix " << len;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    (void)ScatterBatch::Decode(corrupt, &got);
  }
}

TEST(LoopbackTransportTest, DispatchesToHandlersAndCounts) {
  std::vector<LoopbackTransport::Handler> handlers;
  for (int s = 0; s < 3; ++s) {
    handlers.push_back([s](const std::string& request) {
      GatherPartial partial;
      partial.kind = ScatterRequest::Kind::kWarm;
      partial.cells_cached = static_cast<uint64_t>(s) * 100 + request.size();
      return partial.Encode();
    });
  }
  const auto registry = std::make_shared<telemetry::MetricRegistry>();
  LoopbackTransport transport(std::move(handlers), registry);
  ASSERT_EQ(transport.num_shards(), 3u);

  ScatterRequest req;
  req.kind = ScatterRequest::Kind::kWarm;
  req.has_object = true;
  req.object = ObjectKey(1);
  req.has_cells = true;
  const std::string encoded = req.Encode();
  for (size_t s = 0; s < 3; ++s) {
    GatherPartial partial;
    ASSERT_TRUE(
        GatherPartial::Decode(Roundtrip(transport, s, encoded), &partial).ok());
    EXPECT_EQ(partial.cells_cached, s * 100 + encoded.size());
  }
  EXPECT_EQ(registry->GetCounter("dbsa_loopback_messages_total")->Value(), 3u);
  EXPECT_EQ(registry->GetCounter("dbsa_loopback_request_bytes_total")->Value(),
            3 * encoded.size());
  EXPECT_GT(registry->GetCounter("dbsa_loopback_response_bytes_total")->Value(),
            0u);

  EXPECT_THROW(Roundtrip(transport, 3, encoded), std::runtime_error);
}

}  // namespace
}  // namespace dbsa::service
