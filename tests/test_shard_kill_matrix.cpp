// The headline chaos matrix of the sharded runtime: SIGKILL a worker at a
// fixed superstep, at a seeded random superstep/phase, and EIO its
// snapshot during recovery — for PageRank, SSSP, and Hashmin, under both
// checkpoint modes — and require the final vertex values to be
// BIT-IDENTICAL to the undisturbed sharded run. Recovery is only correct
// here if the respawned shard replays the exact schedule: restore the
// newest valid slice, rebuild the inbox (republished frames, and its own
// regenerated self slice for lightweight), and redo supersteps
// deterministically.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "chaos_seed.hpp"
#include "runtime/rng.hpp"
#include "shard/coordinator.hpp"
#include "test_util.hpp"

namespace ipregel::shard {
namespace {

/// The matrix seed (IPREGEL_CHAOS_SEED overrides); the seeded cells
/// derive their coordinates from it, every cell announces itself under it.
const std::uint64_t kMatrixSeed = testing::chaos_seed(0x5EED2026ULL);

class TempDir {
 public:
  explicit TempDir(const std::string& suffix) {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ipregel_") + info->test_suite_name() + "_" +
             info->name() + "_" + suffix);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Shared options of every cell: 2 shards, checkpoint every superstep,
/// keep 3 generations (the EIO cell quarantines the newest and falls back
/// one), retain 4 frame generations (a lightweight resume at T-1 rebuilds
/// from frames of T-2 — one deeper than the heavyweight window).
ShardOptions cell_options(ft::CheckpointMode mode, const std::string& dir) {
  ShardOptions opt;
  opt.num_shards = 2;
  opt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  opt.checkpoint.mode = mode;
  opt.checkpoint.every = 1;
  opt.checkpoint.keep = 3;
  opt.checkpoint.directory = dir;
  opt.retain_supersteps = 4;
  opt.supervisor.backoff_initial_seconds = 0.01;
  return opt;
}

template <typename Program>
void run_cell(const graph::CsrGraph& g, Program program,
              ft::CheckpointMode mode, std::vector<ShardFault> faults,
              std::vector<RestoreFault> restore_faults,
              std::size_t min_recoveries, const std::string& tag) {
  using Value = typename Program::value_type;
  SCOPED_TRACE(tag);
  testing::announce_cell("shard_kill", kMatrixSeed, tag);

  TempDir base_dir(tag + "_base");
  auto base_opt = cell_options(mode, base_dir.str());
  std::vector<Value> want;
  const auto base = run_sharded(g, program, base_opt, &want);
  ASSERT_TRUE(base.ok()) << base.error->what();
  ASSERT_EQ(base.shard.respawns, 0u);

  TempDir chaos_dir(tag + "_chaos");
  auto chaos_opt = cell_options(mode, chaos_dir.str());
  chaos_opt.faults = std::move(faults);
  chaos_opt.restore_faults = std::move(restore_faults);
  std::vector<Value> got;
  const auto chaos = run_sharded(g, program, chaos_opt, &got);
  ASSERT_TRUE(chaos.ok()) << chaos.error->what();
  EXPECT_GE(chaos.shard.respawns, 1u);
  EXPECT_GE(chaos.shard.snapshot_recoveries, min_recoveries);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    // Bitwise, not approximate: recovery replays the exact fold order,
    // doubles included.
    ASSERT_EQ(std::memcmp(&got[s], &want[s], sizeof(Value)), 0)
        << "slot " << s << " diverged after recovery";
  }
}

[[nodiscard]] ShardFault kill_at(std::size_t shard, std::uint64_t superstep,
                                 ShardFault::Phase phase,
                                 std::size_t generation = 0) {
  ShardFault f;
  f.kind = ShardFault::Kind::kSigkill;
  f.shard = shard;
  f.superstep = superstep;
  f.phase = phase;
  f.generation = generation;
  return f;
}

struct Cell {
  const char* app;
  ft::CheckpointMode mode;
};

constexpr ft::CheckpointMode kModes[] = {ft::CheckpointMode::kHeavyweight,
                                         ft::CheckpointMode::kLightweight};

template <typename Program>
void run_matrix_for(const graph::CsrGraph& g, Program program,
                    const std::string& app) {
  for (const auto mode : kModes) {
    const std::string mt = app + "_" + std::string(to_string(mode));

    // Cell 1 — the spec's fixed point: SIGKILL shard 1 at superstep 7.
    run_cell(g, program, mode,
             {kill_at(1, 7, ShardFault::Phase::kCompute)}, {}, 1,
             mt + "_kill_s7");

    // Cell 2 — seeded random superstep and phase. The seed fixes the
    // cell, so failures reproduce; sweep it via IPREGEL_CHAOS_SEED when
    // hunting.
    const std::uint64_t h =
        runtime::mix64(kMatrixSeed ^ (app.size() * 131) ^
                       static_cast<std::uint64_t>(mode));
    const std::uint64_t superstep = 2 + h % 6;
    constexpr ShardFault::Phase kPhases[] = {
        ShardFault::Phase::kCompute, ShardFault::Phase::kAfterPost,
        ShardFault::Phase::kBeforeCheckpoint,
        ShardFault::Phase::kAfterCheckpoint};
    const auto phase = kPhases[(h >> 8) % 4];
    const std::size_t shard = (h >> 16) % 2;
    run_cell(g, program, mode, {kill_at(shard, superstep, phase)}, {}, 1,
             mt + "_kill_seeded_s" + std::to_string(superstep));

    // Cell 3 — EIO during recovery: the first respawn's newest snapshot
    // read fails; SnapshotDirectory must quarantine it and fall back to
    // the previous generation, still bit-identical.
    RestoreFault eio;
    eio.shard = 1;
    eio.generation = 1;
    eio.fail_reads = 1;
    run_cell(g, program, mode,
             {kill_at(1, 5, ShardFault::Phase::kCompute)}, {eio}, 1,
             mt + "_eio_during_recovery");
  }
}

TEST(ShardKillMatrix, PageRank) {
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 12}));
  apps::PageRank pr;
  pr.rounds = 12;
  run_matrix_for(g, pr, "pagerank");
}

TEST(ShardKillMatrix, Sssp) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  run_matrix_for(g, apps::Sssp{}, "sssp");
}

TEST(ShardKillMatrix, Hashmin) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  run_matrix_for(g, apps::Hashmin{}, "hashmin");
}

TEST(ShardKillMatrix, DeathInEveryPhaseOfTheProtocol) {
  // A deterministic sweep over all four fault phases at one superstep:
  // mid-compute, after frames are posted, before the checkpoint, after
  // the checkpoint. Each lands the respawn at a different resume point.
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  for (const auto phase :
       {ShardFault::Phase::kCompute, ShardFault::Phase::kAfterPost,
        ShardFault::Phase::kBeforeCheckpoint,
        ShardFault::Phase::kAfterCheckpoint}) {
    run_cell(g, apps::Sssp{}, ft::CheckpointMode::kHeavyweight,
             {kill_at(0, 4, phase)}, {}, 1,
             "phase_" + std::to_string(static_cast<int>(phase)));
  }
}

TEST(ShardKillMatrix, BothShardsDieInSequence) {
  // Two distinct shards die at different supersteps of one run; each
  // recovery must leave the other's state untouched.
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  run_cell(g, apps::Sssp{}, ft::CheckpointMode::kHeavyweight,
           {kill_at(0, 3, ShardFault::Phase::kCompute),
            kill_at(1, 6, ShardFault::Phase::kCompute)},
           {}, 2, "double_kill");
}

TEST(ShardKillMatrix, RepeatedDeathOfTheSameShardDegradesGracefully) {
  // The same shard dies in its original incarnation AND in its first
  // respawn (generation 1, mid-redo); the second respawn finishes the
  // run. Exercises backoff growth and recovery-from-recovery.
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  run_cell(g, apps::Sssp{}, ft::CheckpointMode::kHeavyweight,
           {kill_at(1, 4, ShardFault::Phase::kCompute),
            kill_at(1, 5, ShardFault::Phase::kCompute, 1)},
           {}, 2, "kill_the_respawn");
}

}  // namespace
}  // namespace ipregel::shard
