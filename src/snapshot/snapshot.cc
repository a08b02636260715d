#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "service/transport.h"
#include "util/check.h"

namespace dbsa::snapshot {

namespace {

using service::WireReader;
using service::WireWriter;

bool ValidSectionId(uint32_t raw) {
  static_assert(static_cast<int>(SectionId::kShardIds) == kSectionIdCount,
                "SectionId grew: bump kSectionIdCount and extend the golden "
                "fixture before widening this acceptance bound");
  return raw >= 1 && raw <= static_cast<uint32_t>(kSectionIdCount);
}

// ---- section encoders --------------------------------------------------
// Every encoder is a pure function of the state: field-wise writes via
// the StoreWire vocabulary, no timestamps, no pointers — the determinism
// the golden-fixture gate byte-diffs against.

std::string EncodeGridSection(const raster::Grid& grid) {
  WireWriter w;
  w.F64(grid.origin().x);
  w.F64(grid.origin().y);
  w.F64(grid.side());
  return w.payload();
}

std::string EncodePointsSection(const data::PointSet& points) {
  WireWriter w;
  const size_t n = points.size();
  DBSA_CHECK(n <= UINT32_MAX);
  // Attribute columns are all-or-nothing, mirroring the slice copy in
  // ShardedState::Build — a per-row presence bit would change layout.
  DBSA_CHECK(points.fare.empty() || points.fare.size() == n);
  DBSA_CHECK(points.passengers.empty() || points.passengers.size() == n);
  DBSA_CHECK(points.hour.empty() || points.hour.size() == n);
  w.U32(static_cast<uint32_t>(n));
  w.U8(points.fare.empty() ? 0 : 1);
  w.U8(points.passengers.empty() ? 0 : 1);
  w.U8(points.hour.empty() ? 0 : 1);
  for (const geom::Point& p : points.locs) {
    w.F64(p.x);
    w.F64(p.y);
  }
  for (const double f : points.fare) w.F64(f);
  for (const uint8_t p : points.passengers) w.U8(p);
  for (const uint8_t h : points.hour) w.U8(h);
  return w.payload();
}

void EncodeRing(const geom::Ring& ring, WireWriter* w) {
  DBSA_CHECK(ring.size() <= UINT32_MAX);
  w->U32(static_cast<uint32_t>(ring.size()));
  for (const geom::Point& v : ring) {
    w->F64(v.x);
    w->F64(v.y);
  }
}

std::string EncodeRegionsSection(const data::RegionSet& regions) {
  WireWriter w;
  DBSA_CHECK(regions.num_regions <= UINT32_MAX);
  DBSA_CHECK(regions.polys.size() <= UINT32_MAX);
  DBSA_CHECK(regions.region_of.size() == regions.polys.size());
  w.U32(static_cast<uint32_t>(regions.num_regions));
  w.U32(static_cast<uint32_t>(regions.polys.size()));
  for (size_t i = 0; i < regions.polys.size(); ++i) {
    const geom::Polygon& poly = regions.polys[i];
    w.U32(regions.region_of[i]);
    DBSA_CHECK(poly.holes().size() <= UINT32_MAX - 1);
    w.U32(static_cast<uint32_t>(1 + poly.holes().size()));
    EncodeRing(poly.outer(), &w);
    for (const geom::Ring& hole : poly.holes()) EncodeRing(hole, &w);
  }
  DBSA_CHECK(regions.names.size() <= UINT32_MAX);
  w.U32(static_cast<uint32_t>(regions.names.size()));
  for (const std::string& name : regions.names) {
    DBSA_CHECK(name.size() <= UINT32_MAX);
    w.U32(static_cast<uint32_t>(name.size()));
    w.Bytes(name.data(), name.size());
  }
  return w.payload();
}

std::string EncodeIndexKeysSection(const index::PrefixSumIndex& index) {
  WireWriter w;
  DBSA_CHECK(index.size() <= UINT32_MAX);
  w.U32(static_cast<uint32_t>(index.size()));
  for (const uint64_t k : index.keys().keys()) w.U64(k);
  return w.payload();
}

std::string EncodeIndexPrefixSection(const index::PrefixSumIndex& index) {
  WireWriter w;
  DBSA_CHECK(index.prefix().size() == index.size() + 1);
  DBSA_CHECK(index.prefix_comp().size() == index.size() + 1);
  w.U32(static_cast<uint32_t>(index.size()));
  for (const double p : index.prefix()) w.F64(p);
  for (const double p : index.prefix_comp()) w.F64(p);
  return w.payload();
}

std::string EncodeIndexIdsSection(const index::PrefixSumIndex& index) {
  WireWriter w;
  DBSA_CHECK(index.ids().size() == index.size());
  w.U32(static_cast<uint32_t>(index.size()));
  for (const uint32_t id : index.ids()) w.U32(id);
  return w.payload();
}

std::string EncodeRoutingSection(const core::ShardedState& sharded) {
  WireWriter w;
  DBSA_CHECK(sharded.num_shards() <= UINT32_MAX);
  w.U32(static_cast<uint32_t>(sharded.num_shards()));
  for (const core::ShardedState::Shard& shard : sharded.shards()) {
    w.F64(shard.bounds.min.x);
    w.F64(shard.bounds.min.y);
    w.F64(shard.bounds.max.x);
    w.F64(shard.bounds.max.y);
    w.U32(shard.min_ix);
    w.U32(shard.min_iy);
    w.U32(shard.max_ix);
    w.U32(shard.max_iy);
    w.U64(shard.hilbert_lo);
    w.U64(shard.hilbert_hi);
    DBSA_CHECK(shard.key_ranges.size() <= UINT32_MAX);
    w.U32(static_cast<uint32_t>(shard.key_ranges.size()));
    for (const auto& [lo, hi] : shard.key_ranges) {
      w.U64(lo);
      w.U64(hi);
    }
    DBSA_CHECK(shard.global_ids.size() <= UINT32_MAX);
    w.U32(static_cast<uint32_t>(shard.global_ids.size()));
    for (const uint32_t id : shard.global_ids) w.U32(id);
  }
  return w.payload();
}

std::string EncodeShardIdsSection(const std::vector<uint32_t>& ids) {
  WireWriter w;
  DBSA_CHECK(ids.size() <= UINT32_MAX);
  w.U32(static_cast<uint32_t>(ids.size()));
  for (const uint32_t id : ids) w.U32(id);
  return w.payload();
}

// ---- section decoders --------------------------------------------------
// Total: counts checked against remaining bytes BEFORE allocation, every
// section consumed exactly, every structural invariant the assembly
// factories rely on validated here (the factories DBSA_CHECK, they do
// not parse).

struct GridParts {
  double origin_x = 0.0, origin_y = 0.0, side = 1.0;
};

Status DecodeGridSection(const char* data, size_t size, GridParts* out) {
  WireReader r(data, size);
  out->origin_x = r.F64();
  out->origin_y = r.F64();
  out->side = r.F64();
  if (!r.AtEnd()) return Status::InvalidArgument("malformed grid section");
  if (!std::isfinite(out->origin_x) || !std::isfinite(out->origin_y) ||
      !std::isfinite(out->side) || out->side <= 0.0) {
    return Status::InvalidArgument("grid section: non-finite origin or side");
  }
  return Status::OK();
}

Status DecodePointsSection(const char* data, size_t size, data::PointSet* out) {
  WireReader r(data, size);
  const uint32_t n = r.U32();
  const uint8_t has_fare = r.U8();
  const uint8_t has_passengers = r.U8();
  const uint8_t has_hour = r.U8();
  if (!r.ok() || has_fare > 1 || has_passengers > 1 || has_hour > 1) {
    return Status::InvalidArgument("malformed points section header");
  }
  const uint64_t need = uint64_t{n} * 16 + (has_fare ? uint64_t{n} * 8 : 0) +
                        (has_passengers ? uint64_t{n} : 0) +
                        (has_hour ? uint64_t{n} : 0);
  if (need != r.remaining()) {
    return Status::InvalidArgument("points section length mismatch");
  }
  out->locs.resize(n);
  for (geom::Point& p : out->locs) {
    p.x = r.F64();
    p.y = r.F64();
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument("points section: non-finite coordinate");
    }
  }
  if (has_fare) {
    out->fare.resize(n);
    for (double& f : out->fare) f = r.F64();
  }
  if (has_passengers) {
    out->passengers.resize(n);
    for (uint8_t& p : out->passengers) p = r.U8();
  }
  if (has_hour) {
    out->hour.resize(n);
    for (uint8_t& h : out->hour) h = r.U8();
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed points section");
  return Status::OK();
}

Status DecodeRing(WireReader* r, geom::Ring* out) {
  const uint32_t nverts = r->U32();
  if (!r->ok() || uint64_t{nverts} * 16 > r->remaining()) {
    return Status::InvalidArgument("regions section: ring count overruns");
  }
  out->resize(nverts);
  for (geom::Point& v : *out) {
    v.x = r->F64();
    v.y = r->F64();
    if (!std::isfinite(v.x) || !std::isfinite(v.y)) {
      return Status::InvalidArgument("regions section: non-finite vertex");
    }
  }
  return Status::OK();
}

Status DecodeRegionsSection(const char* data, size_t size, data::RegionSet* out) {
  WireReader r(data, size);
  const uint32_t num_regions = r.U32();
  const uint32_t num_polys = r.U32();
  if (!r.ok()) return Status::InvalidArgument("malformed regions section header");
  out->num_regions = num_regions;
  // No up-front reserve from counts: each polygon consumes >= 12 bytes of
  // the section, so growth is bounded by actual input.
  for (uint32_t i = 0; i < num_polys; ++i) {
    const uint32_t region_of = r.U32();
    const uint32_t ring_count = r.U32();
    if (!r.ok() || region_of >= num_regions || ring_count < 1 ||
        uint64_t{ring_count} * 4 > r.remaining()) {
      return Status::InvalidArgument("regions section: malformed polygon header");
    }
    geom::Ring outer;
    Status s = DecodeRing(&r, &outer);
    if (!s.ok()) return s;
    std::vector<geom::Ring> holes(ring_count - 1);
    for (geom::Ring& hole : holes) {
      s = DecodeRing(&r, &hole);
      if (!s.ok()) return s;
    }
    out->region_of.push_back(region_of);
    // Rings are reconstructed verbatim (no Normalize): the writer stored
    // the canonical orientation, and re-normalizing would have to be a
    // provable no-op anyway for the byte-identity contract to hold.
    out->polys.emplace_back(std::move(outer), std::move(holes));
  }
  const uint32_t num_names = r.U32();
  if (!r.ok()) return Status::InvalidArgument("regions section: malformed names");
  for (uint32_t i = 0; i < num_names; ++i) {
    const uint32_t len = r.U32();
    if (!r.ok() || len > r.remaining()) {
      return Status::InvalidArgument("regions section: name overruns");
    }
    std::string name(len, '\0');
    for (char& c : name) c = static_cast<char>(r.U8());
    out->names.push_back(std::move(name));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed regions section");
  return Status::OK();
}

Status DecodeIndexKeysSection(const char* data, size_t size,
                              std::vector<uint64_t>* out) {
  WireReader r(data, size);
  const uint32_t n = r.U32();
  if (!r.ok() || uint64_t{n} * 8 != r.remaining()) {
    return Status::InvalidArgument("index-keys section length mismatch");
  }
  out->resize(n);
  for (uint64_t& k : *out) k = r.U64();
  if (!r.AtEnd()) return Status::InvalidArgument("malformed index-keys section");
  if (!std::is_sorted(out->begin(), out->end())) {
    return Status::InvalidArgument("index-keys section: keys not sorted");
  }
  return Status::OK();
}

Status DecodeIndexPrefixSection(const char* data, size_t size,
                                std::vector<double>* prefix,
                                std::vector<double>* prefix_comp) {
  WireReader r(data, size);
  const uint32_t n = r.U32();
  if (!r.ok() || (uint64_t{n} + 1) * 16 != r.remaining()) {
    return Status::InvalidArgument("index-prefix section length mismatch");
  }
  prefix->resize(uint64_t{n} + 1);
  for (double& p : *prefix) p = r.F64();
  prefix_comp->resize(uint64_t{n} + 1);
  for (double& p : *prefix_comp) p = r.F64();
  if (!r.AtEnd()) return Status::InvalidArgument("malformed index-prefix section");
  if ((*prefix)[0] != 0.0 || (*prefix_comp)[0] != 0.0) {
    return Status::InvalidArgument("index-prefix section: prefix[0] not zero");
  }
  return Status::OK();
}

Status DecodeIndexIdsSection(const char* data, size_t size,
                             std::vector<uint32_t>* out) {
  WireReader r(data, size);
  const uint32_t n = r.U32();
  if (!r.ok() || uint64_t{n} * 4 != r.remaining()) {
    return Status::InvalidArgument("index-ids section length mismatch");
  }
  out->resize(n);
  for (uint32_t& id : *out) {
    id = r.U32();
    if (id >= n) return Status::InvalidArgument("index-ids section: id out of range");
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed index-ids section");
  return Status::OK();
}

Status DecodeRoutingSection(const char* data, size_t size, uint32_t expect_shards,
                            std::vector<core::ShardedState::Shard>* out) {
  WireReader r(data, size);
  const uint32_t num_shards = r.U32();
  if (!r.ok() || num_shards != expect_shards) {
    return Status::InvalidArgument("routing section shard count mismatch");
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    core::ShardedState::Shard shard;
    shard.bounds.min.x = r.F64();
    shard.bounds.min.y = r.F64();
    shard.bounds.max.x = r.F64();
    shard.bounds.max.y = r.F64();
    shard.min_ix = r.U32();
    shard.min_iy = r.U32();
    shard.max_ix = r.U32();
    shard.max_iy = r.U32();
    shard.hilbert_lo = r.U64();
    shard.hilbert_hi = r.U64();
    const uint32_t nranges = r.U32();
    if (!r.ok() || uint64_t{nranges} * 16 > r.remaining()) {
      return Status::InvalidArgument("routing section: key ranges overrun");
    }
    shard.key_ranges.resize(nranges);
    uint64_t prev_hi = 0;
    bool first = true;
    for (auto& [lo, hi] : shard.key_ranges) {
      lo = r.U64();
      hi = r.U64();
      if (lo > hi || (!first && lo <= prev_hi)) {
        return Status::InvalidArgument(
            "routing section: key ranges not sorted-disjoint");
      }
      prev_hi = hi;
      first = false;
    }
    const uint32_t nids = r.U32();
    if (!r.ok() || uint64_t{nids} * 4 > r.remaining()) {
      return Status::InvalidArgument("routing section: global ids overrun");
    }
    shard.global_ids.resize(nids);
    uint32_t prev_id = 0;
    bool first_id = true;
    for (uint32_t& id : shard.global_ids) {
      id = r.U32();
      if (!first_id && id <= prev_id) {
        return Status::InvalidArgument("routing section: global ids not ascending");
      }
      prev_id = id;
      first_id = false;
    }
    out->push_back(std::move(shard));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed routing section");
  return Status::OK();
}

}  // namespace

uint64_t SnapshotChecksum(const char* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- SnapshotWriter ----------------------------------------------------

void SnapshotWriter::AddSection(SectionId id, std::string bytes) {
  for (const auto& [existing, unused] : sections_) {
    DBSA_CHECK(existing != id);
  }
  sections_.emplace_back(id, std::move(bytes));
}

std::string SnapshotWriter::Serialize() const {
  DBSA_CHECK(meta_.epoch != 0);  // 0 is the wire wildcard, never a file epoch
  WireWriter w;
  w.U32(kSnapshotMagic);
  w.U16(kSnapshotFormatVersion);
  w.U16(0);  // reserved
  w.U64(meta_.epoch);
  w.I32(meta_.shard_index);
  w.U32(meta_.num_shards);
  w.I32(meta_.hilbert_level);
  DBSA_CHECK(sections_.size() <= static_cast<size_t>(kSectionIdCount));
  w.U32(static_cast<uint32_t>(sections_.size()));
  uint64_t offset =
      kSnapshotHeaderSize + sections_.size() * kSnapshotDirEntrySize;
  for (const auto& [id, bytes] : sections_) {
    w.U32(static_cast<uint32_t>(id));
    w.U32(0);  // reserved
    w.U64(offset);
    w.U64(bytes.size());
    w.U64(SnapshotChecksum(bytes.data(), bytes.size()));
    offset += bytes.size();
  }
  std::string out = w.payload();
  for (const auto& [id, bytes] : sections_) out.append(bytes);
  return out;
}

Status WriteSnapshotFile(const std::string& path, const std::string& image) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open snapshot for writing: " + path);
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != image.size() || !closed) {
    std::remove(path.c_str());
    return Status::Unavailable("short write to snapshot: " + path);
  }
  return Status::OK();
}

void AddEngineStateSections(const core::EngineState& state, SnapshotWriter* writer) {
  DBSA_CHECK(state.points != nullptr && state.regions != nullptr);
  DBSA_CHECK(state.point_index.has_value());
  const index::PrefixSumIndex& index = state.point_index->prefix_index();
  DBSA_CHECK(index.size() == state.points->size());
  writer->AddSection(SectionId::kGrid, EncodeGridSection(state.grid));
  writer->AddSection(SectionId::kPoints, EncodePointsSection(*state.points));
  writer->AddSection(SectionId::kRegions, EncodeRegionsSection(*state.regions));
  writer->AddSection(SectionId::kIndexKeys, EncodeIndexKeysSection(index));
  writer->AddSection(SectionId::kIndexPrefix, EncodeIndexPrefixSection(index));
  writer->AddSection(SectionId::kIndexIds, EncodeIndexIdsSection(index));
}

std::string EncodeClientSnapshot(const core::ShardedState& sharded, uint64_t epoch) {
  SnapshotMeta meta;
  meta.epoch = epoch;
  meta.shard_index = -1;
  meta.num_shards = static_cast<uint32_t>(sharded.num_shards());
  meta.hilbert_level = sharded.hilbert_level();
  SnapshotWriter writer(meta);
  AddEngineStateSections(sharded.base(), &writer);
  writer.AddSection(SectionId::kRouting, EncodeRoutingSection(sharded));
  return writer.Serialize();
}

std::string EncodeShardSnapshot(const core::ShardedState& sharded, size_t shard,
                                uint64_t epoch) {
  DBSA_CHECK(shard < sharded.num_shards());
  const core::ShardedState::Shard& s = sharded.shard(shard);
  DBSA_CHECK(s.state != nullptr);  // slice must be materialized (and non-empty)
  SnapshotMeta meta;
  meta.epoch = epoch;
  meta.shard_index = static_cast<int32_t>(shard);
  meta.num_shards = static_cast<uint32_t>(sharded.num_shards());
  meta.hilbert_level = sharded.hilbert_level();
  SnapshotWriter writer(meta);
  AddEngineStateSections(*s.state, &writer);
  writer.AddSection(SectionId::kShardIds, EncodeShardIdsSection(s.global_ids));
  return writer.Serialize();
}

// ---- SnapshotReader ----------------------------------------------------

StatusOr<SnapshotReader> SnapshotReader::ParseBacking(
    const char* data, size_t size, std::shared_ptr<const void> backing) {
  if (size < kSnapshotHeaderSize) {
    return Status::InvalidArgument("snapshot shorter than header");
  }
  WireReader r(data, size);
  const uint32_t magic = r.U32();
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  const uint16_t version = r.U16();
  if (version != kSnapshotFormatVersion) {
    // Skew, not corruption: the file is well-formed for another format
    // revision — same split the wire's ParseFrame makes.
    return Status::Unimplemented("snapshot format version skew: file v" +
                                 std::to_string(version) + ", reader v" +
                                 std::to_string(kSnapshotFormatVersion));
  }
  const uint16_t reserved = r.U16();
  SnapshotReader reader;
  reader.meta_.epoch = r.U64();
  reader.meta_.shard_index = r.I32();
  reader.meta_.num_shards = r.U32();
  reader.meta_.hilbert_level = r.I32();
  const uint32_t section_count = r.U32();
  if (reserved != 0 || reader.meta_.epoch == 0 ||
      reader.meta_.shard_index < -1 || reader.meta_.num_shards == 0 ||
      reader.meta_.num_shards > (1u << 20) ||
      (reader.meta_.shard_index >= 0 &&
       static_cast<uint32_t>(reader.meta_.shard_index) >= reader.meta_.num_shards) ||
      reader.meta_.hilbert_level < 0 || reader.meta_.hilbert_level > 32) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  // Ids are unique and drawn from [1, kSectionIdCount], so more entries
  // than ids is malformed before we even read the directory.
  if (section_count > static_cast<uint32_t>(kSectionIdCount)) {
    return Status::InvalidArgument("snapshot section count out of range");
  }
  const uint64_t sections_start =
      kSnapshotHeaderSize + uint64_t{section_count} * kSnapshotDirEntrySize;
  if (sections_start > size) {
    return Status::InvalidArgument("snapshot directory overruns file");
  }
  uint64_t expected_offset = sections_start;
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t raw_id = r.U32();
    const uint32_t entry_reserved = r.U32();
    const uint64_t offset = r.U64();
    const uint64_t length = r.U64();
    const uint64_t checksum = r.U64();
    DBSA_CHECK(r.ok());  // directory bound checked above
    if (!ValidSectionId(raw_id) || entry_reserved != 0) {
      return Status::InvalidArgument("malformed snapshot directory entry");
    }
    const SectionId id = static_cast<SectionId>(raw_id);
    for (const Section& existing : reader.sections_) {
      if (existing.id == id) {
        return Status::InvalidArgument("duplicate snapshot section");
      }
    }
    // Strict geometry: sections sit back to back in directory order.
    // offset <= size holds inductively, so size - offset cannot wrap.
    if (offset != expected_offset || length > size - offset) {
      return Status::InvalidArgument("snapshot section geometry mismatch");
    }
    if (SnapshotChecksum(data + offset, length) != checksum) {
      return Status::InvalidArgument("snapshot section checksum mismatch");
    }
    reader.sections_.push_back(Section{id, data + offset, length});
    expected_offset = offset + length;
  }
  if (expected_offset != size) {
    return Status::InvalidArgument("snapshot has trailing bytes");
  }
  reader.backing_ = std::move(backing);
  return reader;
}

StatusOr<SnapshotReader> SnapshotReader::Parse(std::string bytes) {
  auto backing = std::make_shared<const std::string>(std::move(bytes));
  return ParseBacking(backing->data(), backing->size(), backing);
}

StatusOr<SnapshotReader> SnapshotReader::Load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open snapshot: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::NotFound("cannot stat snapshot: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map != MAP_FAILED) {
      std::shared_ptr<const void> owner(map, [size](const void* p) {
        ::munmap(const_cast<void*>(p), size);
      });
      return ParseBacking(static_cast<const char*>(map), size, std::move(owner));
    }
  } else {
    ::close(fd);
  }
  // Buffered fallback (mmap unavailable or empty file).
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open snapshot: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Parse(std::move(bytes));
}

const SnapshotReader::Section* SnapshotReader::FindSection(SectionId id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

bool SnapshotReader::HasSection(SectionId id) const {
  return FindSection(id) != nullptr;
}

StatusOr<std::shared_ptr<const core::EngineState>>
SnapshotReader::AssembleEngineState() const {
  const Section* grid_sec = FindSection(SectionId::kGrid);
  const Section* points_sec = FindSection(SectionId::kPoints);
  const Section* regions_sec = FindSection(SectionId::kRegions);
  const Section* keys_sec = FindSection(SectionId::kIndexKeys);
  const Section* prefix_sec = FindSection(SectionId::kIndexPrefix);
  const Section* ids_sec = FindSection(SectionId::kIndexIds);
  if (grid_sec == nullptr || points_sec == nullptr || regions_sec == nullptr ||
      keys_sec == nullptr || prefix_sec == nullptr || ids_sec == nullptr) {
    return Status::InvalidArgument("snapshot missing engine-state section");
  }
  GridParts grid;
  data::PointSet points;
  data::RegionSet regions;
  std::vector<uint64_t> keys;
  std::vector<double> prefix, prefix_comp;
  std::vector<uint32_t> ids;
  Status s = DecodeGridSection(grid_sec->data, grid_sec->size, &grid);
  if (s.ok()) s = DecodePointsSection(points_sec->data, points_sec->size, &points);
  if (s.ok()) {
    s = DecodeRegionsSection(regions_sec->data, regions_sec->size, &regions);
  }
  if (s.ok()) s = DecodeIndexKeysSection(keys_sec->data, keys_sec->size, &keys);
  if (s.ok()) {
    s = DecodeIndexPrefixSection(prefix_sec->data, prefix_sec->size, &prefix,
                                 &prefix_comp);
  }
  if (s.ok()) s = DecodeIndexIdsSection(ids_sec->data, ids_sec->size, &ids);
  if (!s.ok()) return s;
  // Cross-section consistency: one index entry per point, matching array
  // lengths (per-section checks bounded ids against their OWN count).
  if (keys.size() != points.size() || ids.size() != keys.size() ||
      prefix.size() != keys.size() + 1) {
    return Status::InvalidArgument("snapshot index/point table size mismatch");
  }
  auto state = std::make_shared<core::EngineState>();
  state->points = std::make_shared<const data::PointSet>(std::move(points));
  state->regions = std::make_shared<const data::RegionSet>(std::move(regions));
  state->passengers_as_double.assign(state->points->passengers.begin(),
                                     state->points->passengers.end());
  state->grid = raster::Grid(geom::Point{grid.origin_x, grid.origin_y}, grid.side);
  state->point_index = join::PointIndex::FromParts(
      state->grid,
      index::PrefixSumIndex::FromParts(std::move(keys), std::move(prefix),
                                       std::move(prefix_comp), std::move(ids)));
  return std::shared_ptr<const core::EngineState>(std::move(state));
}

StatusOr<std::vector<uint32_t>> SnapshotReader::DecodeShardIds() const {
  const Section* sec = FindSection(SectionId::kShardIds);
  if (sec == nullptr) {
    return Status::InvalidArgument("snapshot missing shard-ids section");
  }
  WireReader r(sec->data, sec->size);
  const uint32_t n = r.U32();
  if (!r.ok() || uint64_t{n} * 4 != r.remaining()) {
    return Status::InvalidArgument("shard-ids section length mismatch");
  }
  std::vector<uint32_t> ids(n);
  uint32_t prev = 0;
  bool first = true;
  for (uint32_t& id : ids) {
    id = r.U32();
    if (!first && id <= prev) {
      return Status::InvalidArgument("shard-ids section: ids not ascending");
    }
    prev = id;
    first = false;
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed shard-ids section");
  return ids;
}

StatusOr<std::shared_ptr<const core::ShardedState>>
SnapshotReader::AssembleRoutingState(
    std::shared_ptr<const core::EngineState> base) const {
  DBSA_CHECK(base != nullptr);
  const Section* sec = FindSection(SectionId::kRouting);
  if (sec == nullptr) {
    return Status::InvalidArgument("snapshot missing routing section");
  }
  std::vector<core::ShardedState::Shard> shards;
  Status s = DecodeRoutingSection(sec->data, sec->size, meta_.num_shards, &shards);
  if (!s.ok()) return s;
  const size_t num_points = base->points->size();
  size_t total_ids = 0;
  for (const core::ShardedState::Shard& shard : shards) {
    for (const uint32_t id : shard.global_ids) {
      if (id >= num_points) {
        return Status::InvalidArgument("routing section: global id out of range");
      }
    }
    total_ids += shard.global_ids.size();
  }
  // Shards partition the base rows (ascending per shard, checked above).
  if (total_ids != num_points) {
    return Status::InvalidArgument("routing section does not partition the points");
  }
  return core::ShardedState::FromParts(std::move(base), std::move(shards),
                                       meta_.hilbert_level, /*has_slices=*/false);
}

StatusOr<std::shared_ptr<const core::ShardedState>> AssembleClusterState(
    const SnapshotReader& client, const std::vector<SnapshotReader>& slices) {
  if (client.meta().shard_index != -1) {
    return Status::InvalidArgument("not a client snapshot");
  }
  if (slices.size() != client.meta().num_shards) {
    return Status::FailedPrecondition(
        "slice count disagrees with client snapshot shard count");
  }
  auto base_or = client.AssembleEngineState();
  if (!base_or.ok()) return base_or.status();
  auto routing_or = client.AssembleRoutingState(base_or.value());
  if (!routing_or.ok()) return routing_or.status();
  const core::ShardedState& routing = *routing_or.value();
  std::vector<core::ShardedState::Shard> shards(routing.shards());
  for (size_t i = 0; i < slices.size(); ++i) {
    const SnapshotMeta& m = slices[i].meta();
    if (m.epoch != client.meta().epoch) {
      return Status::FailedPrecondition(
          "snapshot epoch skew: slice " + std::to_string(i) + " has epoch " +
          std::to_string(m.epoch) + ", client has " +
          std::to_string(client.meta().epoch));
    }
    if (m.shard_index != static_cast<int32_t>(i) ||
        m.num_shards != client.meta().num_shards ||
        m.hilbert_level != client.meta().hilbert_level) {
      return Status::FailedPrecondition("snapshot shard topology skew");
    }
    auto slice_or = slices[i].AssembleEngineState();
    if (!slice_or.ok()) return slice_or.status();
    auto ids_or = slices[i].DecodeShardIds();
    if (!ids_or.ok()) return ids_or.status();
    if (ids_or.value() != shards[i].global_ids) {
      return Status::InvalidArgument(
          "slice global-id map disagrees with client routing section");
    }
    if (slice_or.value()->points->size() != shards[i].global_ids.size()) {
      return Status::InvalidArgument("slice point count disagrees with id map");
    }
    shards[i].state = std::move(slice_or).value();
  }
  return core::ShardedState::FromParts(routing.base_ptr(), std::move(shards),
                                       client.meta().hilbert_level,
                                       /*has_slices=*/true);
}

}  // namespace dbsa::snapshot
