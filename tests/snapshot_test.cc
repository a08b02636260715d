// Tests for the snapshot interchange (src/snapshot/snapshot.h): the
// writer must be deterministic (byte-identical output for identical
// state), a loaded state must answer every query byte-identically to the
// state it was written from, and the reader must be TOTAL — any
// adversarial input (truncated, bit-flipped, section-spliced, header-
// patched) resolves to a typed Status, never a crash or UB. Corruption
// is kInvalidArgument; a real-but-other format version is kUnimplemented
// (skew, not corruption); cross-file epoch/topology skew in
// AssembleClusterState is kFailedPrecondition. docs/snapshot-format.md
// is the normative spec these tests pin.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/engine_state.h"
#include "core/sharded_state.h"
#include "data/cluster_demo.h"
#include "snapshot/snapshot.h"
#include "test_util.h"

namespace dbsa::snapshot {
namespace {

using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;

/// Small-but-real dataset: every section non-trivial, files small enough
/// that the exhaustive byte-flip sweeps stay fast under sanitizers.
data::ClusterDemoConfig SmallConfig() {
  data::ClusterDemoConfig config;
  config.num_points = 500;
  config.num_regions = 6;
  return config;
}

std::shared_ptr<const core::EngineState> SmallBase() {
  const data::ClusterDemoConfig config = SmallConfig();
  return core::BuildEngineState(data::ClusterDemoPoints(config),
                                data::ClusterDemoRegions(config));
}

std::shared_ptr<const core::ShardedState> SmallSharded(size_t k) {
  core::ShardingOptions sharding;
  sharding.num_shards = k;
  return core::ShardedState::Build(SmallBase(), sharding);
}

void ExpectSameAnswers(const core::EngineState& got, const core::EngineState& want,
                       const std::string& label) {
  const geom::Polygon star = MakeStarPolygon({1500, 1500}, 400, 1200, 12, 7);
  for (const query::ErrorBound& bound :
       {query::ErrorBound::Absolute(8.0), query::ErrorBound::Exact()}) {
    const core::AggregateAnswer agg_got = core::ExecuteAggregate(
        got, join::AggKind::kSum, core::Attr::kFare, bound, core::Mode::kAuto);
    const core::AggregateAnswer agg_want = core::ExecuteAggregate(
        want, join::AggKind::kSum, core::Attr::kFare, bound, core::Mode::kAuto);
    ASSERT_EQ(agg_got.rows.size(), agg_want.rows.size()) << label;
    for (size_t r = 0; r < agg_want.rows.size(); ++r) {
      EXPECT_EQ(agg_got.rows[r].region, agg_want.rows[r].region) << label;
      EXPECT_EQ(agg_got.rows[r].value, agg_want.rows[r].value) << label;
      EXPECT_EQ(agg_got.rows[r].lo, agg_want.rows[r].lo) << label;
      EXPECT_EQ(agg_got.rows[r].hi, agg_want.rows[r].hi) << label;
    }
    const core::CountAnswer count_got = core::ExecuteCount(got, star, bound);
    const core::CountAnswer count_want = core::ExecuteCount(want, star, bound);
    EXPECT_EQ(count_got.range.estimate, count_want.range.estimate) << label;
    EXPECT_EQ(count_got.range.lo, count_want.range.lo) << label;
    EXPECT_EQ(count_got.range.hi, count_want.range.hi) << label;
    const core::SelectAnswer sel_got = core::ExecuteSelect(got, star, bound);
    const core::SelectAnswer sel_want = core::ExecuteSelect(want, star, bound);
    EXPECT_EQ(sel_got.ids, sel_want.ids) << label;
  }
}

// ---- round trips -------------------------------------------------------

TEST(SnapshotTest, ClientSnapshotIsDeterministicAndRoundTrips) {
  const auto sharded = SmallSharded(3);
  const std::string image = EncodeClientSnapshot(*sharded, 7);
  EXPECT_EQ(image, EncodeClientSnapshot(*sharded, 7))
      << "writer must be a pure function of the state";

  StatusOr<SnapshotReader> reader = SnapshotReader::Parse(image);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->meta().epoch, 7u);
  EXPECT_EQ(reader->meta().shard_index, -1);
  EXPECT_EQ(reader->meta().num_shards, 3u);
  EXPECT_EQ(reader->meta().hilbert_level, 16);
  EXPECT_TRUE(reader->HasSection(SectionId::kRouting));
  EXPECT_FALSE(reader->HasSection(SectionId::kShardIds));

  StatusOr<std::shared_ptr<const core::EngineState>> state =
      reader->AssembleEngineState();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  const core::EngineState& got = **state;
  const core::EngineState& want = sharded->base();
  ASSERT_EQ(got.points->size(), want.points->size());
  EXPECT_EQ(got.points->locs, want.points->locs);
  EXPECT_EQ(got.points->fare, want.points->fare);
  EXPECT_EQ(got.points->passengers, want.points->passengers);
  EXPECT_EQ(got.points->hour, want.points->hour);
  EXPECT_EQ(got.passengers_as_double, want.passengers_as_double);
  EXPECT_EQ(got.regions->num_regions, want.regions->num_regions);
  EXPECT_EQ(got.regions->region_of, want.regions->region_of);
  EXPECT_EQ(got.regions->names, want.regions->names);
  EXPECT_EQ(got.grid.origin().x, want.grid.origin().x);
  EXPECT_EQ(got.grid.origin().y, want.grid.origin().y);
  EXPECT_EQ(got.grid.side(), want.grid.side());
  ExpectSameAnswers(got, want, "client round trip");
}

TEST(SnapshotTest, ShardSlicesRoundTripWithIdMaps) {
  const size_t k = 3;
  const auto sharded = SmallSharded(k);
  for (size_t s = 0; s < k; ++s) {
    const std::string image = EncodeShardSnapshot(*sharded, s, 9);
    StatusOr<SnapshotReader> reader = SnapshotReader::Parse(image);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->meta().shard_index, static_cast<int32_t>(s));
    EXPECT_EQ(reader->meta().epoch, 9u);

    StatusOr<std::vector<uint32_t>> ids = reader->DecodeShardIds();
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(*ids, sharded->shard(s).global_ids);

    StatusOr<std::shared_ptr<const core::EngineState>> slice =
        reader->AssembleEngineState();
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ExpectSameAnswers(**slice, *sharded->shard(s).state,
                      "slice " + std::to_string(s));
  }
}

TEST(SnapshotTest, RoutingOnlyAssemblyMatchesBuildMetadata) {
  const auto sharded = SmallSharded(4);
  StatusOr<SnapshotReader> reader =
      SnapshotReader::Parse(EncodeClientSnapshot(*sharded, 3));
  ASSERT_TRUE(reader.ok());
  auto base = reader->AssembleEngineState();
  ASSERT_TRUE(base.ok());
  StatusOr<std::shared_ptr<const core::ShardedState>> routing =
      reader->AssembleRoutingState(*base);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  EXPECT_FALSE((*routing)->has_slices());
  ASSERT_EQ((*routing)->num_shards(), sharded->num_shards());
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const core::ShardedState::Shard& got = (*routing)->shard(s);
    const core::ShardedState::Shard& want = sharded->shard(s);
    EXPECT_EQ(got.global_ids, want.global_ids) << "shard " << s;
    EXPECT_EQ(got.hilbert_lo, want.hilbert_lo) << "shard " << s;
    EXPECT_EQ(got.hilbert_hi, want.hilbert_hi) << "shard " << s;
    EXPECT_EQ(got.key_ranges, want.key_ranges) << "shard " << s;
    EXPECT_EQ(got.min_ix, want.min_ix) << "shard " << s;
    EXPECT_EQ(got.max_iy, want.max_iy) << "shard " << s;
    EXPECT_EQ(got.state, nullptr) << "shard " << s;
  }
}

TEST(SnapshotTest, ClusterAssemblyGraftsSlicesAndMatchesBuildExecution) {
  const size_t k = 3;
  const auto sharded = SmallSharded(k);
  StatusOr<SnapshotReader> client =
      SnapshotReader::Parse(EncodeClientSnapshot(*sharded, 5));
  ASSERT_TRUE(client.ok());
  std::vector<SnapshotReader> slices;
  for (size_t s = 0; s < k; ++s) {
    StatusOr<SnapshotReader> slice =
        SnapshotReader::Parse(EncodeShardSnapshot(*sharded, s, 5));
    ASSERT_TRUE(slice.ok());
    slices.push_back(*slice);
  }
  StatusOr<std::shared_ptr<const core::ShardedState>> assembled =
      AssembleClusterState(*client, slices);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  EXPECT_TRUE((*assembled)->has_slices());

  // The sharded scatter-gather executor over the assembled state must be
  // byte-identical to the same execution over the built state.
  const core::AggregateAnswer got = core::ExecuteAggregate(
      **assembled, join::AggKind::kSum, core::Attr::kFare,
      query::ErrorBound::Absolute(8.0), core::Mode::kPointIndex);
  const core::AggregateAnswer want = core::ExecuteAggregate(
      *sharded, join::AggKind::kSum, core::Attr::kFare,
      query::ErrorBound::Absolute(8.0), core::Mode::kPointIndex);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].value, want.rows[r].value) << "region " << r;
    EXPECT_EQ(got.rows[r].lo, want.rows[r].lo) << "region " << r;
    EXPECT_EQ(got.rows[r].hi, want.rows[r].hi) << "region " << r;
  }
}

// ---- totality ----------------------------------------------------------

TEST(SnapshotTest, EveryDirectoryOrSectionByteFlipIsTypedInvalid) {
  const auto sharded = SmallSharded(2);
  const std::string image = EncodeClientSnapshot(*sharded, 7);
  // Everything after the header is covered by directory validation +
  // section checksums: ANY single-byte corruption there must be caught.
  // (Header fields like the epoch are identity, not payload — a flipped
  // epoch yields a well-formed file of another generation, which the
  // cross-file checks in AssembleClusterState catch instead.)
  for (size_t pos = kSnapshotHeaderSize; pos < image.size(); ++pos) {
    std::string corrupt = image;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0xff);
    StatusOr<SnapshotReader> reader = SnapshotReader::Parse(std::move(corrupt));
    ASSERT_FALSE(reader.ok()) << "flip at " << pos << " parsed";
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument)
        << "flip at " << pos << ": " << reader.status().ToString();
  }
}

TEST(SnapshotTest, TruncationAtEveryLengthIsTypedInvalid) {
  const auto sharded = SmallSharded(2);
  const std::string image = EncodeShardSnapshot(*sharded, 0, 7);
  for (size_t len = 0; len < image.size(); ++len) {
    StatusOr<SnapshotReader> reader =
        SnapshotReader::Parse(image.substr(0, len));
    ASSERT_FALSE(reader.ok()) << "prefix of " << len << " parsed";
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument)
        << "prefix of " << len;
  }
  // Appending trailing garbage is equally malformed (strict geometry).
  StatusOr<SnapshotReader> padded =
      SnapshotReader::Parse(image + std::string(2, '\0'));
  ASSERT_FALSE(padded.ok());
  EXPECT_EQ(padded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, HeaderCorruptionIsTypedAndVersionSkewIsUnimplemented) {
  const auto sharded = SmallSharded(2);
  const std::string image = EncodeClientSnapshot(*sharded, 7);
  const auto patched = [&image](size_t pos, std::initializer_list<uint8_t> bytes) {
    std::string out = image;
    size_t i = pos;
    for (const uint8_t b : bytes) out[i++] = static_cast<char>(b);
    return out;
  };

  // Bad magic (offset 0).
  StatusOr<SnapshotReader> bad_magic = SnapshotReader::Parse(patched(0, {0x5a}));
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kInvalidArgument);

  // Another format version (offset 4, u16 LE): SKEW, not corruption.
  StatusOr<SnapshotReader> skew = SnapshotReader::Parse(patched(4, {2, 0}));
  EXPECT_EQ(skew.status().code(), StatusCode::kUnimplemented);

  // Nonzero reserved (offset 6).
  StatusOr<SnapshotReader> reserved = SnapshotReader::Parse(patched(6, {1}));
  EXPECT_EQ(reserved.status().code(), StatusCode::kInvalidArgument);

  // Epoch 0 (offset 8, u64): the wire wildcard must never stamp a file.
  StatusOr<SnapshotReader> epoch0 =
      SnapshotReader::Parse(patched(8, {0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(epoch0.status().code(), StatusCode::kInvalidArgument);

  // shard_index below -1 (offset 16, i32 LE): -2.
  StatusOr<SnapshotReader> shard =
      SnapshotReader::Parse(patched(16, {0xfe, 0xff, 0xff, 0xff}));
  EXPECT_EQ(shard.status().code(), StatusCode::kInvalidArgument);

  // Hilbert level out of [0, 32] (offset 24).
  StatusOr<SnapshotReader> hilbert = SnapshotReader::Parse(patched(24, {99, 0, 0, 0}));
  EXPECT_EQ(hilbert.status().code(), StatusCode::kInvalidArgument);

  // Absurd section count (offset 28).
  StatusOr<SnapshotReader> sections = SnapshotReader::Parse(patched(28, {200}));
  EXPECT_EQ(sections.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, GarbageAndEmptyInputsAreTyped) {
  EXPECT_EQ(SnapshotReader::Parse("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SnapshotReader::Parse("snap").status().code(),
            StatusCode::kInvalidArgument);
  std::mt19937_64 rng(20210111);
  for (int round = 0; round < 64; ++round) {
    std::string blob;
    const size_t len = rng() % 512;
    blob.reserve(len);
    for (size_t i = 0; i < len; ++i) blob.push_back(static_cast<char>(rng()));
    StatusOr<SnapshotReader> reader = SnapshotReader::Parse(std::move(blob));
    if (!reader.ok()) {
      EXPECT_TRUE(reader.status().code() == StatusCode::kInvalidArgument ||
                  reader.status().code() == StatusCode::kUnimplemented)
          << reader.status().ToString();
    }
  }
}

TEST(SnapshotTest, SectionSpliceAcrossFilesIsDetected) {
  // Both files are individually valid; grafting a run of shard 1's
  // section bytes into shard 0's file at the same offsets leaves the
  // frame intact but changes guarded payload — the per-section checksum
  // must catch it (splice, not random noise: bytes come from a real
  // well-formed sibling file).
  const auto sharded = SmallSharded(2);
  const std::string a = EncodeShardSnapshot(*sharded, 0, 7);
  const std::string b = EncodeShardSnapshot(*sharded, 1, 7);
  ASSERT_TRUE(SnapshotReader::Parse(a).ok());
  ASSERT_TRUE(SnapshotReader::Parse(b).ok());
  // Splice inside the POINTS section (the first section whose bytes
  // differ between sibling slices — the grid and regions sections are
  // shared): it starts right after the 7-entry directory + 24-byte grid
  // section in both files.
  const size_t splice_at = kSnapshotHeaderSize + 7 * kSnapshotDirEntrySize + 24 + 16;
  ASSERT_GT(std::min(a.size(), b.size()), splice_at + 256);
  std::string spliced = a;
  std::memcpy(&spliced[splice_at], b.data() + splice_at, 256);
  ASSERT_NE(spliced, a) << "sibling slices coincided; pick a bigger splice";
  StatusOr<SnapshotReader> reader = SnapshotReader::Parse(std::move(spliced));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

// ---- files -------------------------------------------------------------

TEST(SnapshotTest, WriteSnapshotFileThenLoadRoundTripsAndMissingIsNotFound) {
  const auto sharded = SmallSharded(2);
  SnapshotMeta meta;
  meta.epoch = 11;
  meta.shard_index = -1;
  meta.num_shards = 2;
  SnapshotWriter writer(meta);
  AddEngineStateSections(sharded->base(), &writer);
  const std::string path = "snapshot_test.tmp";
  ASSERT_TRUE(WriteSnapshotFile(path, writer.Serialize()).ok());
  StatusOr<SnapshotReader> loaded = SnapshotReader::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta().epoch, 11u);
  StatusOr<std::shared_ptr<const core::EngineState>> state =
      loaded->AssembleEngineState();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ((*state)->points->size(), sharded->base().points->size());
  std::remove(path.c_str());

  StatusOr<SnapshotReader> missing = SnapshotReader::Load("definitely/not/here");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, WriteSnapshotFileFailsTypedAndLeavesNoFile) {
  const std::string path = "snapshot_test_missing_dir/client.snapshot";
  const Status written = WriteSnapshotFile(path, "image bytes");
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  EXPECT_NE(written.message().find(path), std::string::npos) << written.ToString();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

// ---- cross-file skew ---------------------------------------------------

TEST(SnapshotTest, ClusterAssemblyRejectsEpochAndTopologySkewTyped) {
  const size_t k = 2;
  const auto sharded = SmallSharded(k);
  StatusOr<SnapshotReader> client =
      SnapshotReader::Parse(EncodeClientSnapshot(*sharded, 5));
  ASSERT_TRUE(client.ok());
  std::vector<SnapshotReader> good;
  for (size_t s = 0; s < k; ++s) {
    good.push_back(*SnapshotReader::Parse(EncodeShardSnapshot(*sharded, s, 5)));
  }
  ASSERT_TRUE(AssembleClusterState(*client, good).ok());

  // A slice of another epoch: FAILED PRECONDITION (skew, not corruption).
  std::vector<SnapshotReader> stale = good;
  stale[1] = *SnapshotReader::Parse(EncodeShardSnapshot(*sharded, 1, 4));
  StatusOr<std::shared_ptr<const core::ShardedState>> epoch_skew =
      AssembleClusterState(*client, stale);
  ASSERT_FALSE(epoch_skew.ok());
  EXPECT_EQ(epoch_skew.status().code(), StatusCode::kFailedPrecondition);

  // Slices out of position (shard 1's file where shard 0's should be).
  std::vector<SnapshotReader> swapped = {good[1], good[0]};
  StatusOr<std::shared_ptr<const core::ShardedState>> positions =
      AssembleClusterState(*client, swapped);
  ASSERT_FALSE(positions.ok());
  EXPECT_EQ(positions.status().code(), StatusCode::kFailedPrecondition);

  // Wrong slice count.
  std::vector<SnapshotReader> short_set = {good[0]};
  StatusOr<std::shared_ptr<const core::ShardedState>> count =
      AssembleClusterState(*client, short_set);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kFailedPrecondition);

  // A slice file where the client file should be.
  StatusOr<std::shared_ptr<const core::ShardedState>> not_client =
      AssembleClusterState(good[0], good);
  ASSERT_FALSE(not_client.ok());
  EXPECT_EQ(not_client.status().code(), StatusCode::kInvalidArgument);

  // A different sharding's slice against this client: topology skew.
  const auto other = SmallSharded(3);
  std::vector<SnapshotReader> foreign = good;
  foreign[0] = *SnapshotReader::Parse(EncodeShardSnapshot(*other, 0, 5));
  StatusOr<std::shared_ptr<const core::ShardedState>> topo =
      AssembleClusterState(*client, foreign);
  ASSERT_FALSE(topo.ok());
  EXPECT_EQ(topo.status().code(), StatusCode::kFailedPrecondition);
}

// ---- the checked-in golden fixture ------------------------------------
// tests/golden/snapshot/ holds the bytes scripts/check_snapshot_golden.sh
// keeps fresh. Reading them HERE pins backward compatibility: a reader
// change that stops understanding already-written v1 files fails this
// test even while writer and gate agree with each other.
TEST(SnapshotTest, GoldenFixtureLoadsAndAssembles) {
  const std::string golden = std::string(DBSA_SOURCE_DIR) + "/tests/golden/snapshot";
  StatusOr<SnapshotReader> client = SnapshotReader::Load(golden + "/client.snapshot");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->meta().epoch, 3u);
  EXPECT_EQ(client->meta().shard_index, -1);
  EXPECT_EQ(client->meta().num_shards, 2u);
  EXPECT_EQ(client->meta().hilbert_level, 12);

  std::vector<SnapshotReader> slices;
  for (size_t s = 0; s < 2; ++s) {
    StatusOr<SnapshotReader> slice =
        SnapshotReader::Load(golden + "/shard-" + std::to_string(s) + ".snapshot");
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_EQ(slice->meta().epoch, 3u);
    EXPECT_EQ(slice->meta().shard_index, static_cast<int32_t>(s));
    slices.push_back(*slice);
  }
  StatusOr<std::shared_ptr<const core::ShardedState>> assembled =
      AssembleClusterState(*client, slices);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();

  // The fixture's generation flags (the one other place they live is
  // check_snapshot_golden.sh's GOLDEN_FLAGS): assembled state must
  // answer byte-identically to a rebuild from those flags.
  data::ClusterDemoConfig config;
  config.num_points = 600;
  config.num_regions = 6;
  config.universe_side = 1024;
  config.hilbert_level = 12;
  const auto base = core::BuildEngineState(data::ClusterDemoPoints(config),
                                           data::ClusterDemoRegions(config));
  ExpectSameAnswers((*assembled)->base(), *base, "golden vs rebuild");
}

TEST(SnapshotTest, CorruptGoldenFixtureIsRejectedTyped) {
  // The negative fixture the lint selftest aims the freshness gate at:
  // one XOR-flipped byte inside client.snapshot's section data. The
  // READER must reject it too — corruption detection cannot depend on
  // having the pristine copy to diff against.
  const std::string bad = std::string(DBSA_SOURCE_DIR) +
                          "/scripts/lint_fixtures/bad_snapshot_golden/client.snapshot";
  StatusOr<SnapshotReader> reader = SnapshotReader::Load(bad);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument)
      << reader.status().ToString();
}

}  // namespace
}  // namespace dbsa::snapshot
