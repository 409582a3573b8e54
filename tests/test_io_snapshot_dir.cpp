// SnapshotDirectory: the recovery-side fallback ladder. Retention GC,
// quarantine of CRC-corrupt snapshots, fallback ordering when the newest
// 1..K-1 candidates are invalid, and the end-to-end property that
// ft::supervise degrades past a corrupt latest snapshot to the previous
// good one instead of failing the resume.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "core/runner.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "ft/supervisor.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using graph::CsrGraph;
using ipregel::testing::make_graph;

class TempDir {
 public:
  explicit TempDir(const std::string& label = "d") {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ipregel_snapdir_") + info->name() + "_" + label))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// A small but fully valid lightweight snapshot for superstep `s`.
ft::EngineSnapshot make_snap(std::uint64_t s) {
  ft::EngineSnapshot snap;
  snap.meta.mode = ft::CheckpointMode::kLightweight;
  snap.meta.superstep = s;
  snap.meta.num_slots = 4;
  snap.meta.num_vertices = 4;
  snap.meta.num_edges = 6;
  snap.meta.graph_fingerprint = 0xF00D;
  snap.meta.value_size = 4;
  snap.meta.message_size = 4;
  snap.values.assign(16, static_cast<std::uint8_t>(s));
  snap.halted.assign(4, 0);
  return snap;
}

void write_snaps(const std::string& dir, std::uint64_t first,
                 std::uint64_t last) {
  for (std::uint64_t s = first; s <= last; ++s) {
    ft::write_snapshot(ft::snapshot_path(dir, "snapshot", s), make_snap(s));
  }
}

/// Flips one byte in the middle of the file — lands inside a section
/// payload, so the section CRC catches it.
void corrupt(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(data.size(), 2u);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0xFF);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(RecoveryDirectoryListing, AcceptsOnlyFinishedSnapshots) {
  const ft::RecoveryDirectory snapshot("d", "snapshot.", ft::kSnapshotSuffix);
  const ft::RecoveryDirectory cp("d", "cp.", ft::kSnapshotSuffix);
  EXPECT_EQ(snapshot.parse("snapshot.12.ipsnap"), std::uint64_t{12});
  EXPECT_EQ(cp.parse("cp.0.ipsnap"), std::uint64_t{0});
  // In-flight, quarantined, foreign, and malformed names are invisible.
  EXPECT_FALSE(snapshot.parse("snapshot.12.ipsnap.tmp"));
  EXPECT_FALSE(snapshot.parse("snapshot.12.ipsnap.quarantined"));
  EXPECT_FALSE(snapshot.parse("other.12.ipsnap"));
  EXPECT_FALSE(snapshot.parse("snapshot..ipsnap"));
  EXPECT_FALSE(snapshot.parse("snapshot.1x.ipsnap"));
}

TEST(RecoveryDirectoryListing, ListsFinishedFilesInNumericOrder) {
  TempDir dir;
  for (const char* name :
       {"snapshot.10.ipsnap", "snapshot.9.ipsnap", "snapshot.100.ipsnap",
        "snapshot.12.ipsnap.tmp", "snapshot.12.ipsnap.quarantined",
        "other.12.ipsnap", "snapshot..ipsnap", "snapshot.1x.ipsnap"}) {
    std::ofstream(dir.str() + "/" + name) << "x";
  }
  const ft::RecoveryDirectory snapshots(dir.str(), "snapshot.",
                                        ft::kSnapshotSuffix);
  const auto entries = snapshots.list();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].seq, 9u);
  EXPECT_EQ(entries[1].seq, 10u);
  EXPECT_EQ(entries[2].seq, 100u);
  EXPECT_EQ(entries[2].path, snapshots.path_for(100));
}

TEST(SnapshotDirectoryTest, MissingDirectoryIsEmpty) {
  ft::SnapshotDirectory snapshots("/nonexistent/ipregel/ckpt");
  EXPECT_TRUE(snapshots.list().empty());
  EXPECT_FALSE(snapshots.newest_valid().has_value());
  EXPECT_EQ(snapshots.quarantined(), 0u);
}

TEST(SnapshotDirectoryTest, RetentionKeepsNewestK) {
  TempDir dir;
  write_snaps(dir.str(), 1, 5);
  ft::SnapshotDirectory snapshots(dir.str(), "snapshot", nullptr,
                                  /*keep=*/2);
  ASSERT_EQ(snapshots.list().size(), 5u);
  snapshots.prune();
  const auto entries = snapshots.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].superstep, 4u);
  EXPECT_EQ(entries[1].superstep, 5u);
}

TEST(SnapshotDirectoryTest, NewestValidPicksHighestSuperstep) {
  TempDir dir;
  write_snaps(dir.str(), 1, 3);
  ft::SnapshotDirectory snapshots(dir.str());
  const auto newest = snapshots.newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->superstep, 3u);
  EXPECT_EQ(newest->path, ft::snapshot_path(dir.str(), "snapshot", 3));
  EXPECT_EQ(snapshots.quarantined(), 0u);
}

TEST(SnapshotDirectoryTest, QuarantinesCorruptNewestAndFallsBack) {
  TempDir dir;
  write_snaps(dir.str(), 1, 3);
  const std::string newest_path = ft::snapshot_path(dir.str(), "snapshot", 3);
  corrupt(newest_path);

  ft::SnapshotDirectory snapshots(dir.str());
  const auto newest = snapshots.newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->superstep, 2u);
  EXPECT_EQ(snapshots.quarantined(), 1u);
  // The corrupt file moved aside — still on disk for post-mortem, but no
  // longer a candidate.
  EXPECT_FALSE(std::filesystem::exists(newest_path));
  EXPECT_TRUE(std::filesystem::exists(newest_path + ".quarantined"));
  for (const auto& entry : snapshots.list()) {
    EXPECT_NE(entry.superstep, 3u);
  }
}

TEST(SnapshotDirectoryTest, FallsBackPastMultipleCorruptCandidates) {
  TempDir dir;
  write_snaps(dir.str(), 1, 4);
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 4));
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 3));
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 2));

  ft::SnapshotDirectory snapshots(dir.str());
  const auto newest = snapshots.newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->superstep, 1u);
  EXPECT_EQ(snapshots.quarantined(), 3u);
}

TEST(SnapshotDirectoryTest, AllCorruptMeansNoCandidate) {
  TempDir dir;
  write_snaps(dir.str(), 1, 2);
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 1));
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 2));
  ft::SnapshotDirectory snapshots(dir.str());
  EXPECT_FALSE(snapshots.newest_valid().has_value());
  EXPECT_EQ(snapshots.quarantined(), 2u);
}

TEST(SnapshotDirectoryTest, TruncatedSnapshotIsQuarantinedToo) {
  TempDir dir;
  write_snaps(dir.str(), 1, 2);
  const std::string newest_path = ft::snapshot_path(dir.str(), "snapshot", 2);
  // Chop the trailer off — the torn-tail shape a non-atomic writer
  // would have left behind.
  const auto size = std::filesystem::file_size(newest_path);
  std::filesystem::resize_file(newest_path, size / 2);

  ft::SnapshotDirectory snapshots(dir.str());
  const auto newest = snapshots.newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->superstep, 1u);
  EXPECT_EQ(snapshots.quarantined(), 1u);
}

// End to end: a supervised run whose latest snapshot rotted on disk
// resumes from the previous good one and still produces the clean run's
// values. Hashmin is min-combined, so the equality is exact at any thread
// count.
TEST(SnapshotDirectoryTest, SuperviseFallsBackPastCorruptLatest) {
  graph::EdgeList edges = graph::uniform_random(150, 300, 13);
  edges.symmetrize();
  const CsrGraph g = make_graph(edges);
  const apps::Hashmin program{};
  const VersionId version{CombinerKind::kSpinlockPush, false};

  EngineOptions base;
  base.threads = 4;
  std::vector<graph::vid_t> clean;
  const RunResult clean_result =
      run_version(g, program, version, base, nullptr, &clean);
  ASSERT_GE(clean_result.supersteps, 3u);

  // Produce a trail of real snapshots, then rot the newest.
  TempDir dir;
  EngineOptions checkpointing = base;
  checkpointing.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  checkpointing.checkpoint.every = 1;
  checkpointing.checkpoint.mode = ft::CheckpointMode::kHeavyweight;
  checkpointing.checkpoint.directory = dir.str();
  (void)run_version(g, program, version, checkpointing);
  ft::SnapshotDirectory trail(dir.str());
  const auto entries = trail.list();
  ASSERT_GE(entries.size(), 2u) << "need at least two snapshots to degrade";
  corrupt(entries.back().path);

  std::vector<graph::vid_t> recovered;
  const ft::SupervisedOutcome outcome =
      ft::supervise(g, program, version, checkpointing, ft::RetryPolicy{},
                    nullptr, &recovered);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.resumed_from_snapshot, 1u);
  EXPECT_EQ(outcome.snapshots_quarantined, 1u);
  ASSERT_EQ(recovered.size(), clean.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(recovered[s], clean[s]) << "value diverged at slot " << s;
  }
}

// --- retention racing quarantine -----------------------------------------
//
// prune() counts only snapshots that VALIDATE toward the retention window.
// The scenario that motivates this: the newest snapshot is corrupt (torn
// write, rotted at rest) and keep is small — a name-based prune would let
// the corrupt file squat on a retention slot and delete the newest GOOD
// snapshot, leaving recovery with nothing.

TEST(SnapshotDirectoryTest, PruneQuarantinesCorruptAndKeepsValidated) {
  TempDir dir;
  write_snaps(dir.str(), 1, 5);
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 5));
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 4));

  ft::SnapshotDirectory snapshots(dir.str(), "snapshot", nullptr,
                                  /*keep=*/2);
  snapshots.prune();
  EXPECT_EQ(snapshots.quarantined(), 2u);
  const auto entries = snapshots.list();
  // 5 and 4 quarantined, 3 and 2 retained (the newest two that VALIDATE),
  // 1 pruned.
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].superstep, 2u);
  EXPECT_EQ(entries[1].superstep, 3u);
}

TEST(SnapshotDirectoryTest, PruneKeepOneNeverDeletesNewestValid) {
  // The keep == 1 worst case: with the newest snapshot corrupt, retention
  // must land on the newest VALID snapshot, not on the corpse.
  TempDir dir;
  write_snaps(dir.str(), 1, 3);
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 3));

  ft::SnapshotDirectory snapshots(dir.str(), "snapshot", nullptr,
                                  /*keep=*/1);
  snapshots.prune();
  EXPECT_EQ(snapshots.quarantined(), 1u);
  const auto entries = snapshots.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].superstep, 2u);
  const auto newest = snapshots.newest_valid();
  ASSERT_TRUE(newest.has_value())
      << "prune deleted the only good snapshot";
  EXPECT_EQ(newest->superstep, 2u);
}

TEST(SnapshotDirectoryTest, PruneHonoursSemanticValidator) {
  // A snapshot can be structurally immaculate yet semantically rotten
  // (corruption that predates the write). A semantic validator passed to
  // prune() must disqualify it from retention exactly like CRC damage.
  TempDir dir;
  write_snaps(dir.str(), 1, 4);
  const ft::SnapshotDirectory::Validator reject_newest =
      [](const ft::EngineSnapshot& snap) -> const char* {
    // make_snap fills values with the superstep number: "content says 4"
    // plays the part of a value-audit failure.
    return (!snap.values.empty() && snap.values[0] == 4)
               ? "content failed the value audit"
               : nullptr;
  };

  ft::SnapshotDirectory snapshots(dir.str(), "snapshot", nullptr,
                                  /*keep=*/1);
  snapshots.prune(reject_newest);
  EXPECT_EQ(snapshots.quarantined(), 1u);
  const auto entries = snapshots.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].superstep, 3u);
  EXPECT_TRUE(std::filesystem::exists(
      ft::snapshot_path(dir.str(), "snapshot", 4) + ".quarantined"));
}

TEST(SnapshotDirectoryTest, PruneKeepZeroTouchesNothing) {
  TempDir dir;
  write_snaps(dir.str(), 1, 3);
  corrupt(ft::snapshot_path(dir.str(), "snapshot", 3));
  ft::SnapshotDirectory snapshots(dir.str(), "snapshot", nullptr,
                                  /*keep=*/0);
  snapshots.prune();
  // keep == 0 disables retention GC entirely: nothing deleted, nothing
  // examined, nothing quarantined.
  EXPECT_EQ(snapshots.quarantined(), 0u);
  EXPECT_EQ(snapshots.list().size(), 3u);
}

}  // namespace
}  // namespace ipregel
