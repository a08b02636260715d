#include "service/transport.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.h"

namespace dbsa::service {

std::string WireWriter::TakeFramed(MessageType type, uint64_t correlation) {
  WireWriter framed;
  // magic+version+type+correlation.
  framed.U32(static_cast<uint32_t>(out_.size() + kWireHeaderAfterLength));
  framed.U16(kWireMagic);
  framed.U8(kWireVersion);
  framed.U8(static_cast<uint8_t>(type));
  framed.U64(correlation);
  framed.Bytes(out_.data(), out_.size());
  out_.clear();
  return std::move(framed.out_);
}

Status ParseFrame(const std::string& bytes, MessageType* type,
                  const char** payload, size_t* payload_size,
                  uint64_t* correlation) {
  WireReader reader(bytes);
  const uint32_t length = reader.U32();
  const uint16_t magic = reader.U16();
  const uint8_t version = reader.U8();
  const uint8_t raw_type = reader.U8();
  if (!reader.ok()) {
    return Status::InvalidArgument("frame shorter than header");
  }
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad magic");
  }
  if (version != kWireVersion) {
    // Version skew is not corruption: the peer speaks a real-but-other
    // protocol revision. v1–v4 frames land here — rejected with a typed
    // status, never decoded with a misread correlation field, defaulted
    // contract/trace fields, or a missing epoch. Checked BEFORE the
    // correlation read: v1–v3 have no correlation field, so a short
    // older-version frame must reject as skew, not as truncation.
    return Status::Unimplemented("wire version " + std::to_string(version) +
                                 " not served (this peer speaks version " +
                                 std::to_string(kWireVersion) + ")");
  }
  const uint64_t corr = reader.U64();
  if (!reader.ok()) {
    return Status::InvalidArgument("frame shorter than v5 envelope");
  }
  if (static_cast<size_t>(length) + kWireLengthSize != bytes.size()) {
    return Status::InvalidArgument("frame length mismatch");
  }
  static_assert(kMessageTypeCount == 6,
                "new MessageType: widen this acceptance range (and teach "
                "ShardListener / the demux loops to route it)");
  if (raw_type < static_cast<uint8_t>(MessageType::kScatterRequest) ||
      raw_type > static_cast<uint8_t>(MessageType::kGatherBatch)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw_type));
  }
  *type = static_cast<MessageType>(raw_type);
  *payload = bytes.data() + kWireEnvelopeSize;
  *payload_size = bytes.size() - kWireEnvelopeSize;
  if (correlation != nullptr) *correlation = corr;
  return Status::OK();
}

Status CheckFrameLength(uint32_t length) {
  if (length >= 4 && static_cast<size_t>(length) <= kMaxFrameBytes) {
    return Status::OK();
  }
  return Status::InvalidArgument("frame length " + std::to_string(length) +
                                 " outside [4, " + std::to_string(kMaxFrameBytes) +
                                 "]");
}

uint64_t PeekCorrelation(const std::string& frame) {
  if (frame.size() < kWireEnvelopeSize) return 0;
  return util::LoadWire<uint64_t>(frame.data() + kWireCorrelationOffset);
}

void PatchCorrelation(std::string* frame, uint64_t correlation) {
  if (frame->size() < kWireEnvelopeSize) return;
  util::StoreWire(frame->data() + kWireCorrelationOffset, correlation);
}

namespace {

/// A well-formed CellId: a single sentinel bit at an even position at or
/// below 2*kMaxLevel, with the Morton prefix inside the 49-bit id domain.
/// Must be checked BEFORE CellId::level()/prefix() touch the value —
/// __builtin_ctzll(0) is undefined behaviour.
bool ValidCellIdBits(uint64_t id) {
  if (id == 0) return false;
  if (id >= (uint64_t{1} << (2 * raster::CellId::kMaxLevel + 1))) return false;
  const int ctz = __builtin_ctzll(id);
  return ctz % 2 == 0 && ctz <= 2 * raster::CellId::kMaxLevel;
}

constexpr uint8_t kFlagHasObject = 1u << 0;
constexpr uint8_t kFlagHasCells = 1u << 1;

bool ValidScatterKind(uint8_t k) {
  static_assert(ScatterRequest::kKindCount == 3,
                "new scatter kind: widen this acceptance bound");
  return k <= static_cast<uint8_t>(ScatterRequest::Kind::kWarm);
}

bool ValidBoundKind(uint8_t k) {
  static_assert(query::kBoundKindCount == 3,
                "new bound kind: widen this acceptance bound");
  return k <= static_cast<uint8_t>(query::BoundKind::kExact);
}

bool ValidStatusCode(uint8_t c) {
  static_assert(kStatusCodeCount == 10,
                "new StatusCode: widen this acceptance bound (codes are "
                "stable wire values — append only)");
  return c <= static_cast<uint8_t>(kMaxStatusCode);
}

}  // namespace

std::string ScatterRequest::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(kind));
  uint8_t flags = 0;
  if (has_object) flags |= kFlagHasObject;
  if (has_cells) flags |= kFlagHasCells;
  w.U8(flags);
  w.U8(static_cast<uint8_t>(bound_kind));
  w.F64(bound_epsilon);
  w.I32(level);
  w.U64(checksum);
  w.U64(trace_hi);
  w.U64(trace_lo);
  w.U64(span_id);
  w.U64(epoch);
  if (has_object) {
    w.U64(object.hi);
    w.U64(object.lo);
  }
  if (has_cells) {
    w.U32(static_cast<uint32_t>(cells.size()));
    for (const raster::HrCell& cell : cells) {
      w.U64(cell.id.id());
      w.U8(cell.boundary ? 1 : 0);
    }
  }
  return w.TakeFramed(MessageType::kScatterRequest);
}

Status ScatterRequest::Decode(const std::string& bytes, ScatterRequest* out) {
  MessageType type;
  const char* payload = nullptr;
  size_t payload_size = 0;
  const Status framed = ParseFrame(bytes, &type, &payload, &payload_size);
  if (!framed.ok()) return framed;
  if (type != MessageType::kScatterRequest) {
    return Status::InvalidArgument("not a ScatterRequest");
  }
  WireReader r(payload, payload_size);
  const uint8_t raw_kind = r.U8();
  const uint8_t flags = r.U8();
  const uint8_t raw_bound_kind = r.U8();
  out->bound_epsilon = r.F64();
  out->level = r.I32();
  out->checksum = r.U64();
  out->trace_hi = r.U64();
  out->trace_lo = r.U64();
  out->span_id = r.U64();
  out->epoch = r.U64();
  if (!ValidScatterKind(raw_kind)) {
    return Status::InvalidArgument("unknown scatter kind");
  }
  if (!ValidBoundKind(raw_bound_kind)) {
    return Status::InvalidArgument("unknown bound kind");
  }
  if (std::isnan(out->bound_epsilon)) {
    return Status::InvalidArgument("NaN bound epsilon");
  }
  out->kind = static_cast<Kind>(raw_kind);
  out->bound_kind = static_cast<query::BoundKind>(raw_bound_kind);
  out->has_object = (flags & kFlagHasObject) != 0;
  out->has_cells = (flags & kFlagHasCells) != 0;
  out->object = ObjectKey();
  if (out->has_object) {
    const uint64_t hi = r.U64();
    const uint64_t lo = r.U64();
    out->object = ObjectKey(hi, lo);
  }
  out->cells.clear();
  if (out->has_cells) {
    const uint32_t n = r.U32();
    // The count must be consistent with the remaining bytes before any
    // allocation — a corrupted count must not reserve gigabytes.
    if (!r.ok() || static_cast<uint64_t>(n) * 9 != r.remaining()) {
      return Status::InvalidArgument("cell count inconsistent with payload size");
    }
    out->cells.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t id = r.U64();
      const uint8_t boundary = r.U8();
      if (!ValidCellIdBits(id) || boundary > 1) {
        return Status::InvalidArgument("invalid cell encoding");
      }
      out->cells.push_back({raster::CellId(id), boundary != 0});
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in ScatterRequest");
  }
  return Status::OK();
}

dbsa::Status GatherPartial::ToStatus() const {
  static_assert(kDispositionCount == 3,
                "new disposition: give it a typed status mapping below");
  switch (status) {
    case Disposition::kOk:
      return Status::OK();
    case Disposition::kNotCached:
      return Status(code != StatusCode::kOk ? code : StatusCode::kNotFound,
                    error.empty() ? "slice not cached" : error);
    case Disposition::kError:
      return Status(code != StatusCode::kOk ? code : StatusCode::kInternal,
                    error.empty() ? "shard error" : error);
  }
  return Status::Internal("invalid partial disposition");
}

GatherPartial GatherPartial::FromStatus(ScatterRequest::Kind kind,
                                        Disposition disp,
                                        const dbsa::Status& status) {
  DBSA_CHECK(disp != Disposition::kOk && !status.ok());
  GatherPartial out;
  out.kind = kind;
  out.status = disp;
  out.code = status.code();
  out.error = status.message();
  return out;
}

std::string GatherPartial::Encode() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(kind));
  w.U8(static_cast<uint8_t>(status));
  // The serving epoch travels on EVERY partial — error and not-cached
  // included — so an epoch-skew rejection names the server's epoch typed.
  w.U64(epoch);
  if (status != Disposition::kOk) {
    w.U8(static_cast<uint8_t>(code));
    w.U32(static_cast<uint32_t>(error.size()));
    w.Bytes(error.data(), error.size());
  } else {
    static_assert(ScatterRequest::kKindCount == 3,
                  "new scatter kind: encode its partial payload below (and "
                  "mirror the decoder + docs/wire-format.md)");
    switch (kind) {
      case ScatterRequest::Kind::kAggregateCells: {
        w.F64(aggregate.count);
        w.F64(aggregate.sum);
        w.F64(aggregate.sum_comp);
        w.F64(aggregate.boundary_count);
        w.F64(aggregate.boundary_sum);
        w.F64(aggregate.boundary_sum_comp);
        w.U64(aggregate.query_cells);
        w.U64(aggregate.searches);
        break;
      }
      case ScatterRequest::Kind::kSelectIds: {
        w.U64(probe_cells);
        w.U32(static_cast<uint32_t>(keyed_ids.size()));
        for (const auto& [key, id] : keyed_ids) {
          w.U64(key);
          w.U32(id);
        }
        break;
      }
      case ScatterRequest::Kind::kWarm: {
        w.U64(cells_cached);
        break;
      }
    }
  }
  return w.TakeFramed(MessageType::kGatherPartial);
}

dbsa::Status GatherPartial::Decode(const std::string& bytes, GatherPartial* out) {
  MessageType type;
  const char* payload = nullptr;
  size_t payload_size = 0;
  const Status framed = ParseFrame(bytes, &type, &payload, &payload_size);
  if (!framed.ok()) return framed;
  if (type != MessageType::kGatherPartial) {
    return Status::InvalidArgument("not a GatherPartial");
  }
  WireReader r(payload, payload_size);
  const uint8_t raw_kind = r.U8();
  const uint8_t raw_status = r.U8();
  const uint64_t epoch = r.U64();
  if (!r.ok() || !ValidScatterKind(raw_kind) ||
      raw_status > static_cast<uint8_t>(Disposition::kNotCached)) {
    return Status::InvalidArgument("invalid GatherPartial header");
  }
  out->kind = static_cast<ScatterRequest::Kind>(raw_kind);
  out->status = static_cast<Disposition>(raw_status);
  out->epoch = epoch;
  out->code = StatusCode::kOk;
  out->error.clear();
  out->aggregate = join::CellAggregate();
  out->keyed_ids.clear();
  out->probe_cells = 0;
  out->cells_cached = 0;
  if (out->status != Disposition::kOk) {
    const uint8_t raw_code = r.U8();
    if (!r.ok() || !ValidStatusCode(raw_code)) {
      return Status::InvalidArgument("invalid partial status code");
    }
    out->code = static_cast<StatusCode>(raw_code);
    const uint32_t n = r.U32();
    if (!r.ok() || n != r.remaining()) {
      return Status::InvalidArgument("error text inconsistent with payload size");
    }
    out->error.assign(payload + (payload_size - n), n);
    return Status::OK();
  }
  static_assert(ScatterRequest::kKindCount == 3,
                "new scatter kind: decode its partial payload below");
  switch (out->kind) {
    case ScatterRequest::Kind::kAggregateCells: {
      out->aggregate.count = r.F64();
      out->aggregate.sum = r.F64();
      out->aggregate.sum_comp = r.F64();
      out->aggregate.boundary_count = r.F64();
      out->aggregate.boundary_sum = r.F64();
      out->aggregate.boundary_sum_comp = r.F64();
      out->aggregate.query_cells = static_cast<size_t>(r.U64());
      out->aggregate.searches = static_cast<size_t>(r.U64());
      break;
    }
    case ScatterRequest::Kind::kSelectIds: {
      out->probe_cells = r.U64();
      const uint32_t n = r.U32();
      if (!r.ok() || static_cast<uint64_t>(n) * 12 != r.remaining()) {
        return Status::InvalidArgument("id count inconsistent with payload size");
      }
      out->keyed_ids.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t key = r.U64();
        const uint32_t id = r.U32();
        // The gather merges the shards' runs (core::GatherIds), which
        // needs each run strictly ascending in (leaf key, row id).
        if (i > 0 && !(out->keyed_ids.back() < std::make_pair(key, id))) {
          return Status::InvalidArgument(
              "select ids not strictly ascending in (leaf key, row id)");
        }
        out->keyed_ids.emplace_back(key, id);
      }
      break;
    }
    case ScatterRequest::Kind::kWarm: {
      out->cells_cached = r.U64();
      break;
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in GatherPartial");
  }
  return Status::OK();
}

std::string EncodeBatch(MessageType type, const std::vector<std::string>& frames) {
  DBSA_CHECK(type == MessageType::kScatterBatch || type == MessageType::kGatherBatch);
  WireWriter w;
  w.U32(static_cast<uint32_t>(frames.size()));
  for (const std::string& frame : frames) {
    w.U32(static_cast<uint32_t>(frame.size()));
    w.Bytes(frame.data(), frame.size());
  }
  return w.TakeFramed(type);
}

namespace {

/// Decodes the entries of a batch frame of `type` with the bare decoder
/// `decode`, each into one element of `out`.
template <typename Message, typename Decode>
Status DecodeBatch(const std::string& bytes, MessageType type, const char* name,
                   Decode decode, std::vector<Message>* out) {
  MessageType got = MessageType::kScatterRequest;
  const char* payload = nullptr;
  size_t payload_size = 0;
  const Status framed = ParseFrame(bytes, &got, &payload, &payload_size);
  if (!framed.ok()) return framed;
  if (got != type) return Status::InvalidArgument(std::string("not a ") + name);
  WireReader r(payload, payload_size);
  const uint32_t count = r.U32();
  if (!r.ok() || count == 0) {
    return Status::InvalidArgument(std::string("empty ") + name);
  }
  // Every entry is at least a length field and a bare envelope: check the
  // count against the bytes before reserving anything, so a corrupted
  // count cannot reserve gigabytes.
  if (static_cast<uint64_t>(count) * (kWireLengthSize + kWireEnvelopeSize) >
      r.remaining()) {
    return Status::InvalidArgument(std::string(name) +
                                   " count inconsistent with payload size");
  }
  out->clear();
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t length = r.U32();
    const std::string entry = r.Bytes(length);
    if (!r.ok()) {
      return Status::InvalidArgument(std::string(name) + " entry " +
                                     std::to_string(i) + " runs past the payload");
    }
    const Status decoded = decode(entry, &(*out)[i]);
    if (!decoded.ok()) {
      return Status::InvalidArgument(std::string(name) + " entry " +
                                     std::to_string(i) + ": " + decoded.message());
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(std::string("trailing bytes in ") + name);
  }
  return Status::OK();
}

}  // namespace

std::string ScatterBatch::Encode() const {
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (const ScatterRequest& request : requests) frames.push_back(request.Encode());
  return EncodeBatch(MessageType::kScatterBatch, frames);
}

Status ScatterBatch::Decode(const std::string& bytes, ScatterBatch* out) {
  return DecodeBatch(bytes, MessageType::kScatterBatch, "ScatterBatch",
                     &ScatterRequest::Decode, &out->requests);
}

std::string GatherBatch::Encode() const {
  std::vector<std::string> frames;
  frames.reserve(partials.size());
  for (const GatherPartial& partial : partials) frames.push_back(partial.Encode());
  return EncodeBatch(MessageType::kGatherBatch, frames);
}

Status GatherBatch::Decode(const std::string& bytes, GatherBatch* out) {
  return DecodeBatch(bytes, MessageType::kGatherBatch, "GatherBatch",
                     &GatherPartial::Decode, &out->partials);
}

std::string StatsRequest::Encode() const {
  WireWriter w;
  return w.TakeFramed(MessageType::kStatsRequest);
}

dbsa::Status StatsRequest::Decode(const std::string& bytes, StatsRequest* out) {
  (void)out;
  MessageType type;
  const char* payload = nullptr;
  size_t payload_size = 0;
  const Status framed = ParseFrame(bytes, &type, &payload, &payload_size);
  if (!framed.ok()) return framed;
  if (type != MessageType::kStatsRequest) {
    return Status::InvalidArgument("not a StatsRequest");
  }
  if (payload_size != 0) {
    return Status::InvalidArgument("trailing bytes in StatsRequest");
  }
  return Status::OK();
}

std::string StatsReply::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(text.size()));
  w.Bytes(text.data(), text.size());
  return w.TakeFramed(MessageType::kStatsReply);
}

dbsa::Status StatsReply::Decode(const std::string& bytes, StatsReply* out) {
  MessageType type;
  const char* payload = nullptr;
  size_t payload_size = 0;
  const Status framed = ParseFrame(bytes, &type, &payload, &payload_size);
  if (!framed.ok()) return framed;
  if (type != MessageType::kStatsReply) {
    return Status::InvalidArgument("not a StatsReply");
  }
  WireReader r(payload, payload_size);
  const uint32_t n = r.U32();
  if (!r.ok() || n != r.remaining()) {
    return Status::InvalidArgument("stats text inconsistent with payload size");
  }
  out->text.assign(payload + (payload_size - n), n);
  return Status::OK();
}

LoopbackTransport::LoopbackTransport(
    std::vector<Handler> handlers,
    std::shared_ptr<telemetry::MetricRegistry> registry)
    : handlers_(std::move(handlers)),
      registry_(registry ? std::move(registry)
                         : std::make_shared<telemetry::MetricRegistry>()),
      messages_(registry_->GetCounter("dbsa_loopback_messages_total")),
      request_bytes_(registry_->GetCounter("dbsa_loopback_request_bytes_total")),
      response_bytes_(
          registry_->GetCounter("dbsa_loopback_response_bytes_total")) {}

uint64_t LoopbackTransport::Send(size_t shard, std::string request, Done done) {
  if (shard >= handlers_.size()) {
    done(Status::InvalidArgument("LoopbackTransport: no such shard " +
                                 std::to_string(shard)));
    return 0;
  }
  const uint64_t correlation =
      next_correlation_.fetch_add(1, std::memory_order_relaxed);
  PatchCorrelation(&request, correlation);
  messages_->Add(1);
  request_bytes_->Add(request.size());
  std::string response = handlers_[shard](request);
  response_bytes_->Add(response.size());
  done(std::move(response));
  return correlation;
}

}  // namespace dbsa::service
