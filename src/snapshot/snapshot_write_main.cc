// snapshot_write — cuts a deterministic demo-city build into epoch-
// stamped snapshot files (src/snapshot/snapshot.h): one client/base file
// (full EngineState + routing metadata) and one slice file per shard.
// The emitted set is what a snapshot-loaded cluster serves from:
//
//   ./build/snapshot_write --placement=cluster.placement --epoch=7
//       --out_dir=/tmp/snap
//   ./build/shard_server_main --placement=cluster.placement --shard=2
//       --snapshot=/tmp/snap/shard-2.snapshot
//
// --shards=K stands in for --placement when no placement file exists yet
// (the tool only needs the shard count). Dataset flags are the shared
// cluster-demo knobs (data/cluster_demo.h); output is a pure function of
// flags — two runs emit byte-identical files, which is what the golden
// fixture gate (scripts/check_snapshot_golden.sh) relies on.

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/engine_state.h"
#include "core/sharded_state.h"
#include "data/cluster_demo.h"
#include "service/placement.h"
#include "snapshot/snapshot.h"
#include "util/flags.h"

namespace {

using dbsa::util::FlagValue;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--placement=FILE | --shards=K) --out_dir=DIR\n"
      "          [--epoch=1]\n"
      "          [--points=20000] [--regions=24] [--universe=4096]\n"
      "          [--seed=20210111] [--hilbert_level=16]\n"
      "\n"
      "Writes DIR/client.snapshot (base dataset + routing metadata) and\n"
      "DIR/shard-<i>.snapshot for every shard. The epoch must be nonzero\n"
      "(0 is the wire wildcard) and stamps every file: servers loading\n"
      "them pin their serving epoch to it. Deterministic: byte-identical\n"
      "output for identical flags.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbsa;

  if (!util::KnownFlagsOnly(argc, argv,
                            {"placement", "shards", "out_dir", "epoch",
                             "points", "regions", "universe", "seed",
                             "hilbert_level"})) {
    return Usage(argv[0]);
  }

  std::string out_dir;
  if (!FlagValue(argc, argv, "out_dir", &out_dir) || out_dir.empty()) {
    return Usage(argv[0]);
  }

  size_t num_shards = 0;
  std::string placement_path;
  if (FlagValue(argc, argv, "placement", &placement_path)) {
    StatusOr<service::ShardPlacement> placement =
        service::ShardPlacement::Load(placement_path);
    if (!placement.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   placement.status().ToString().c_str());
      return 1;
    }
    num_shards = placement->num_shards();
  } else {
    num_shards = static_cast<size_t>(util::UintFlag(argc, argv, "shards", 0));
  }
  if (num_shards == 0) {
    std::fprintf(stderr, "error: need --placement=FILE or --shards=K\n");
    return Usage(argv[0]);
  }

  const uint64_t epoch = util::UintFlag(argc, argv, "epoch", 1);
  if (epoch == 0) {
    std::fprintf(stderr,
                 "error: --epoch=0 is the wire wildcard, not a stampable "
                 "dataset generation\n");
    return 1;
  }

  const data::ClusterDemoConfig dataset =
      data::ClusterDemoConfigFromFlags(argc, argv);
  if (dataset.num_points < num_shards) {
    std::fprintf(stderr,
                 "error: --points=%zu is fewer than the %zu shards\n",
                 dataset.num_points, num_shards);
    return 1;
  }

  // Created if absent; an existing directory is fine (files overwrite).
  if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: mkdir %s: %s\n", out_dir.c_str(),
                 std::strerror(errno));
    return 1;
  }

  std::printf("building demo city (%zu points, %zu regions, universe %.0f, "
              "seed %llu), %zu shards...\n",
              dataset.num_points, dataset.num_regions, dataset.universe_side,
              static_cast<unsigned long long>(dataset.seed), num_shards);
  std::fflush(stdout);

  const auto base = core::BuildEngineState(data::ClusterDemoPoints(dataset),
                                           data::ClusterDemoRegions(dataset));
  core::ShardingOptions sharding;
  sharding.num_shards = num_shards;
  sharding.hilbert_level = dataset.hilbert_level;
  const auto sharded = core::ShardedState::Build(base, sharding);

  const std::string client_path = out_dir + "/client.snapshot";
  {
    const std::string image = snapshot::EncodeClientSnapshot(*sharded, epoch);
    const Status written = snapshot::WriteSnapshotFile(client_path, image);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes, epoch %llu)\n", client_path.c_str(),
                image.size(), static_cast<unsigned long long>(epoch));
  }

  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const std::string image = snapshot::EncodeShardSnapshot(*sharded, s, epoch);
    const std::string path =
        out_dir + "/shard-" + std::to_string(s) + ".snapshot";
    const Status written = snapshot::WriteSnapshotFile(path, image);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes, %zu points)\n", path.c_str(),
                image.size(), sharded->shard(s).global_ids.size());
  }
  return 0;
}
