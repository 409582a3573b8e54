// Per-shard snapshot-directory discipline: each worker prunes and
// quarantines its OWN subdirectory, and newest_valid() must never
// resurrect a slice written under a different shard topology — the shard
// count and index are bound into the v2 program fingerprint, so a foreign
// slice is quarantined on the walk instead of shadowing this shard's own
// older snapshots.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/sssp.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "shard/coordinator.hpp"
#include "test_util.hpp"

namespace ipregel::shard {
namespace {

class TempDir {
 public:
  TempDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ipregel_") + info->test_suite_name() + "_" +
             info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

[[nodiscard]] std::size_t count_with_suffix(const std::string& dir,
                                            const std::string& suffix) {
  std::size_t n = 0;
  if (!std::filesystem::exists(dir)) {
    return 0;
  }
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

TEST(ShardSnapshotDir, EachShardPrunesItsOwnSubdirectoryToKeep) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  TempDir dir;
  ShardOptions opt;
  opt.num_shards = 2;
  opt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  opt.checkpoint.every = 1;
  opt.checkpoint.keep = 2;
  opt.checkpoint.directory = dir.str();
  const auto outcome = run_sharded(g, apps::Sssp{}, opt, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.error->what();
  // The run crosses well over `keep` barriers; retention must have
  // clamped each shard's subdirectory independently.
  for (const std::string shard : {"/shard0", "/shard1"}) {
    EXPECT_EQ(count_with_suffix(dir.str() + shard, ".ipsnap"), 2u) << shard;
    EXPECT_EQ(count_with_suffix(dir.str() + shard, ".quarantined"), 0u)
        << shard;
  }
}

TEST(ShardSnapshotDir, ForeignShardCountSliceIsQuarantinedNotResurrected) {
  // A shard0 directory holding an older snapshot from THIS topology
  // (2 shards) and a newer one doctored to look like shard 0 of a
  // different shard count with a coinciding slot range: only the
  // topology-bound fingerprint can tell them apart, and the walk must
  // quarantine the foreign newest and return the older own slice.
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 7}));
  TempDir dir;
  const std::uint64_t graph_fp = 0x600D;
  const std::uint64_t program_fp = program_fingerprint<apps::Hashmin>();
  const ShardPartition part2(g, 2);
  Slice<apps::Hashmin> slice(g, apps::Hashmin{}, part2, 0, graph_fp);
  slice.engine.reset();
  const std::uint64_t fp_4shards = shard_fingerprint(program_fp, 4, 0);

  auto own = slice.engine.capture_state(ft::CheckpointMode::kHeavyweight);
  own.meta.superstep = 2;
  ft::write_snapshot(ft::snapshot_path(dir.str(), "snapshot", 2), own);
  // The same slice, doctored to carry shard 0 of 4's fingerprint.
  auto foreign = own;
  foreign.meta.superstep = 5;
  foreign.meta.program_fingerprint = fp_4shards;
  ft::write_snapshot(ft::snapshot_path(dir.str(), "snapshot", 5), foreign);

  ft::SnapshotDirectory snapdir(dir.str(), "snapshot", nullptr, 4);
  const auto entry = snapdir.newest_valid(
      [&](const ft::EngineSnapshot& s) { return slice.engine.validate(s); });
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->superstep, 2u);  // the older OWN slice, not the newest
  EXPECT_EQ(snapdir.quarantined(), 1u);
  EXPECT_EQ(count_with_suffix(dir.str(), ".quarantined"), 1u);
}

TEST(ShardSnapshotDir, CorruptNewestSliceFallsBackWithinTheShard) {
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 7}));
  TempDir dir;
  const ShardPartition part2(g, 2);
  Slice<apps::Hashmin> slice(g, apps::Hashmin{}, part2, 1, 0x600D);
  slice.engine.reset();
  for (const std::uint64_t step : {1u, 2u, 3u}) {
    auto snap = slice.engine.capture_state(ft::CheckpointMode::kHeavyweight);
    snap.meta.superstep = step;
    ft::write_snapshot(ft::snapshot_path(dir.str(), "snapshot", step), snap);
  }
  // Flip bytes in the middle of the newest file.
  const std::string newest = ft::snapshot_path(dir.str(), "snapshot", 3);
  {
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(garbage, sizeof(garbage));
  }
  ft::SnapshotDirectory snapdir(dir.str(), "snapshot", nullptr, 4);
  const auto entry = snapdir.newest_valid(
      [&](const ft::EngineSnapshot& s) { return slice.engine.validate(s); });
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->superstep, 2u);
  EXPECT_EQ(snapdir.quarantined(), 1u);
}

TEST(ShardSnapshotDir, ReShardedRunNeverRestoresTheOldTopologysSlices) {
  // End to end: a 2-shard checkpointed run leaves its slices behind; a
  // 4-shard run over the SAME directory then loses a worker. The respawn
  // must restore a 4-shard slice (or restart), never a stale 2-shard one
  // — and the result must still match the reference.
  const auto g =
      testing::make_graph(graph::grid_2d(6, 6, graph::GridOptions{}));
  TempDir dir;
  ShardOptions pre;
  pre.num_shards = 2;
  pre.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  pre.checkpoint.every = 2;
  pre.checkpoint.keep = 2;
  pre.checkpoint.directory = dir.str();
  const auto first = run_sharded(g, apps::Sssp{}, pre, nullptr);
  ASSERT_TRUE(first.ok()) << first.error->what();
  ASSERT_GE(count_with_suffix(dir.str() + "/shard0", ".ipsnap"), 1u);

  ShardOptions opt = pre;
  opt.num_shards = 4;
  opt.checkpoint.every = 1;
  opt.retain_supersteps = 4;
  ShardFault kill;
  kill.kind = ShardFault::Kind::kSigkill;
  kill.shard = 0;
  kill.superstep = 3;
  kill.phase = ShardFault::Phase::kCompute;
  opt.faults.push_back(kill);
  std::vector<std::uint32_t> got;
  const auto outcome = run_sharded(g, apps::Sssp{}, opt, &got);
  ASSERT_TRUE(outcome.ok()) << outcome.error->what();
  EXPECT_GE(outcome.shard.respawns, 1u);
  // The stale 2-shard slices in shard0/ were quarantined along the way,
  // not restored.
  EXPECT_GE(count_with_suffix(dir.str() + "/shard0", ".quarantined"), 1u);

  std::vector<std::uint32_t> want;
  EngineOptions eopt;
  eopt.threads = 1;
  (void)run_version(g, apps::Sssp{},
                    VersionId{CombinerKind::kMutexPush, false}, eopt, nullptr,
                    &want);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(got[s], want[s]) << "slot " << s;
  }
}

}  // namespace
}  // namespace ipregel::shard
