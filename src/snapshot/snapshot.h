// Epoch-stamped snapshot interchange — the serialization of the engine's
// immutable build products (core/engine_state.h, core/sharded_state.h),
// so a shard server loads its slice from a file instead of re-deriving
// the dataset, and a failover replica provably serves the SAME dataset
// generation as the primary it replaced.
//
// A snapshot file is a header, a section directory and flat sections:
//
//   [header]      magic, format version, epoch, shard index, shard count,
//                 hilbert level, section count — 32 bytes, fixed.
//   [directory]   one 32-byte entry per section: id, absolute offset,
//                 length and an FNV-1a checksum of the section bytes.
//   [sections]    back to back, in directory order, ending exactly at
//                 the end of the file (no gaps, no trailer).
//
// Two file shapes share the format (docs/snapshot-format.md is the
// normative byte spec):
//
//   client file   shard_index == -1: the FULL base EngineState (points,
//                 regions, grid, point index) + the routing metadata of
//                 every shard. Full because exact bounds never cross the
//                 shard seam — they execute client-side against the base.
//   slice file    shard_index == s: shard s's slice EngineState + its
//                 global-id map. What one shard-server process needs.
//
// Determinism: every byte is written via the sanctioned StoreWire
// vocabulary (service::WireWriter), field-wise, little-endian, with no
// timestamps — two writers over the same state emit byte-identical
// files, which is what lets scripts/check_snapshot_golden.sh byte-diff a
// checked-in fixture against a fresh rebuild.
//
// Totality: SnapshotReader mirrors the ParseFrame discipline — ANY input
// (truncated, bit-flipped, section-spliced, adversarial) yields a typed
// Status, never UB. Corruption (bad magic, checksum mismatch, length
// inconsistency) is kInvalidArgument; a real-but-other format version is
// kUnimplemented — skew, not corruption, mirroring the wire rule. Counts
// are checked against remaining bytes BEFORE any allocation. Fuzzed by
// fuzz/fuzz_snapshot_reader.cc under ASan and MSan.
//
// The epoch is the dataset-generation stamp: every process loading files
// of epoch E serves wire-v5 requests pinned to E and rejects others
// typed (kFailedPrecondition) — read-your-epoch across failover. Epoch 0
// is reserved as the wire wildcard and must not stamp a snapshot.

#ifndef DBSA_SNAPSHOT_SNAPSHOT_H_
#define DBSA_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_state.h"
#include "core/sharded_state.h"
#include "util/status.h"

namespace dbsa::snapshot {

/// "snap", little-endian.
inline constexpr uint32_t kSnapshotMagic = 0x70616E73;
/// Format revisions are wholesale, like the wire: a reader serves exactly
/// one version and rejects every other with kUnimplemented.
inline constexpr uint16_t kSnapshotFormatVersion = 1;

/// Fixed header: magic u32, version u16, reserved u16 (must be 0),
/// epoch u64, shard_index i32, num_shards u32, hilbert_level i32,
/// section_count u32.
inline constexpr size_t kSnapshotHeaderSize = 32;
/// Directory entry: section id u32, reserved u32 (must be 0), absolute
/// offset u64, length u64, FNV-1a checksum u64.
inline constexpr size_t kSnapshotDirEntrySize = 32;
static_assert(kSnapshotHeaderSize == 4 + 2 + 2 + 8 + 4 + 4 + 4 + 4,
              "snapshot header layout drifted — update docs/snapshot-format.md");
static_assert(kSnapshotDirEntrySize == 4 + 4 + 8 + 8 + 8,
              "snapshot directory layout drifted — update docs/snapshot-format.md");

/// Section ids are stable file values: append only, never renumber
/// (docs/snapshot-format.md). Zero is reserved as never-valid.
enum class SectionId : uint32_t {
  kGrid = 1,         ///< Covering grid: origin + side.
  kPoints = 2,       ///< Column-wise point table.
  kRegions = 3,      ///< Region table: polygons + names.
  kIndexKeys = 4,    ///< Sorted leaf keys of the point index.
  kIndexPrefix = 5,  ///< Compensated prefix-sum pairs (n+1 each).
  kIndexIds = 6,     ///< Sort permutation (original row ids).
  kRouting = 7,      ///< Per-shard routing metadata (client files).
  kShardIds = 8,     ///< This slice's local-row -> base-row map.
};
/// Pinned by the reader's id-validation static_assert: a new section
/// must widen the acceptance bound and teach the golden fixture.
inline constexpr int kSectionIdCount = 8;

/// File identity carried by the header.
struct SnapshotMeta {
  /// Dataset-generation stamp (see header comment). Never 0 in a file.
  uint64_t epoch = 0;
  /// -1 for a client/base file; the shard index for a slice file.
  int32_t shard_index = -1;
  /// Shard count of the sharded build both file shapes derive from.
  uint32_t num_shards = 0;
  /// Hilbert ordering granularity of the shard cuts.
  int32_t hilbert_level = 16;
};

/// FNV-1a over `n` bytes — the same construction as the wire-layer
/// ApproxChecksum (shard_server.cc), applied to raw section bytes.
uint64_t SnapshotChecksum(const char* data, size_t n);

// ------------------------------------------------------------- writer

/// Accumulates sections and serializes the framed file. Deterministic:
/// output is a pure function of the meta + sections added, in order.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const SnapshotMeta& meta) : meta_(meta) {}

  /// Appends one section (raw payload bytes; the writer frames and
  /// checksums them). Ids must be unique per file.
  void AddSection(SectionId id, std::string bytes);

  /// The complete file image.
  std::string Serialize() const;

 private:
  SnapshotMeta meta_;
  std::vector<std::pair<SectionId, std::string>> sections_;
};

/// Adds the four EngineState sections (grid, points, regions, index
/// keys/prefix/ids) of `state` — the shared core of both file shapes.
void AddEngineStateSections(const core::EngineState& state, SnapshotWriter* writer);

/// The complete client/base file of a sharded build: full base
/// EngineState + per-shard routing metadata. `sharded` may be a
/// routing-only build (slices are not serialized into client files).
std::string EncodeClientSnapshot(const core::ShardedState& sharded, uint64_t epoch);

/// The slice file of shard `shard`: its slice EngineState + global-id
/// map. The slice must be materialized (ShardingOptions::only_slice or a
/// full build).
std::string EncodeShardSnapshot(const core::ShardedState& sharded, size_t shard,
                                uint64_t epoch);

/// Writes an encoded file image to `path`. kUnavailable if the file
/// cannot be opened or fully written; a short write or failed close
/// removes the partial file, so no truncated snapshot is left behind.
Status WriteSnapshotFile(const std::string& path, const std::string& image);

// ------------------------------------------------------------- reader

/// Total, typed decoder over an mmap- or buffer-backed file image.
/// Parse/Load validate the header, directory geometry (sections back to
/// back, covering the file exactly) and every section checksum up front;
/// the Assemble* methods then decode individual sections with the same
/// count-before-allocation discipline as the wire decoders. Copyable:
/// copies share the backing bytes.
class SnapshotReader {
 public:
  SnapshotReader() = default;

  /// Parses an in-memory file image (the reader takes ownership).
  static StatusOr<SnapshotReader> Parse(std::string bytes);

  /// Maps `path` read-only (falling back to a buffered read where mmap
  /// is unavailable) and parses it. kNotFound if the file cannot be
  /// opened.
  static StatusOr<SnapshotReader> Load(const std::string& path);

  const SnapshotMeta& meta() const { return meta_; }
  bool HasSection(SectionId id) const;

  /// Assembles the base/slice EngineState from the grid, points, regions
  /// and index sections. The point index is restored from its frozen
  /// arrays (search structures rebuilt deterministically from the keys),
  /// so answers are byte-identical to a rebuild from the same tables.
  StatusOr<std::shared_ptr<const core::EngineState>> AssembleEngineState() const;

  /// The slice's global-id map (slice files; kShardIds section).
  StatusOr<std::vector<uint32_t>> DecodeShardIds() const;

  /// Assembles a ROUTING-ONLY sharded state over `base` from the
  /// kRouting section (client files): every shard's pruning metadata,
  /// no slice states (has_slices() == false — the socket client shape).
  StatusOr<std::shared_ptr<const core::ShardedState>> AssembleRoutingState(
      std::shared_ptr<const core::EngineState> base) const;

 private:
  struct Section {
    SectionId id;
    const char* data;
    size_t size;
  };
  /// Shared validation core of Parse/Load: header, directory geometry,
  /// checksums. `data` must stay valid as long as `backing` lives.
  static StatusOr<SnapshotReader> ParseBacking(const char* data, size_t size,
                                               std::shared_ptr<const void> backing);
  const Section* FindSection(SectionId id) const;

  SnapshotMeta meta_;
  std::vector<Section> sections_;
  /// Owns the bytes the sections point into (heap string or mmap).
  std::shared_ptr<const void> backing_;
};

/// Assembles the FULL in-process sharded state of a snapshot-written
/// cluster: the client file's base + routing, with every shard's slice
/// state grafted in from its slice file (has_slices() == true — the
/// loopback-cluster shape the conformance tests drive). Rejects typed:
/// epoch or shard-count skew across the files is kFailedPrecondition; a
/// slice whose global-id map disagrees with the client's routing section
/// is kInvalidArgument.
StatusOr<std::shared_ptr<const core::ShardedState>> AssembleClusterState(
    const SnapshotReader& client, const std::vector<SnapshotReader>& slices);

}  // namespace dbsa::snapshot

#endif  // DBSA_SNAPSHOT_SNAPSHOT_H_
