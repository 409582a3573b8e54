// Snapshot files and engine capture/restore: round trips, retention,
// atomic publication, and — most importantly — rejection. A snapshot that
// does not fit the engine (different graph, incompatible version, a mode
// the program cannot recover from) must throw before any engine state is
// touched.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "ft/fingerprint.hpp"
#include "ft/snapshot.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using ipregel::testing::make_graph;

class TempDir {
 public:
  TempDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ipregel_") + info->test_suite_name() + "_" +
             info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

ft::EngineSnapshot sample_snapshot(std::uint64_t slots = 4) {
  ft::EngineSnapshot snap;
  snap.meta.mode = ft::CheckpointMode::kHeavyweight;
  snap.meta.combiner = 1;
  snap.meta.selection_bypass = true;
  snap.meta.superstep = 11;
  snap.meta.num_slots = slots;
  snap.meta.num_vertices = slots;
  snap.meta.num_edges = 9;
  snap.meta.graph_fingerprint = 0xABCDEF0123456789ULL;
  snap.meta.value_size = 4;
  snap.meta.message_size = 2;
  snap.values.assign(slots * 4, 0x5A);
  snap.halted.assign(slots, 1);
  snap.inbox.assign(slots * 2, 0x33);
  snap.inbox_flags.assign(slots, 0);
  snap.frontier = {0, 2};
  return snap;
}

TEST(SnapshotFile, RoundTripsAllSections) {
  const TempDir dir;
  const std::string path = ft::snapshot_path(dir.str(), "snapshot", 11);
  const ft::EngineSnapshot original = sample_snapshot();
  ft::write_snapshot(path, original);

  const ft::EngineSnapshot loaded = ft::read_snapshot(path);
  EXPECT_EQ(loaded.meta.mode, original.meta.mode);
  EXPECT_EQ(loaded.meta.combiner, original.meta.combiner);
  EXPECT_EQ(loaded.meta.selection_bypass, original.meta.selection_bypass);
  EXPECT_EQ(loaded.meta.superstep, original.meta.superstep);
  EXPECT_EQ(loaded.meta.graph_fingerprint, original.meta.graph_fingerprint);
  EXPECT_EQ(loaded.values, original.values);
  EXPECT_EQ(loaded.halted, original.halted);
  EXPECT_EQ(loaded.inbox, original.inbox);
  EXPECT_EQ(loaded.inbox_flags, original.inbox_flags);
  EXPECT_EQ(loaded.frontier, original.frontier);

  const ft::SnapshotMeta meta = ft::read_snapshot(path).meta;
  EXPECT_EQ(meta.superstep, 11u);
  EXPECT_EQ(meta.num_edges, 9u);
}

TEST(SnapshotFile, PublicationIsAtomic) {
  const TempDir dir;
  const std::string path = ft::snapshot_path(dir.str(), "snapshot", 3);
  ft::write_snapshot(path, sample_snapshot());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temporary staging file left behind";
}

TEST(SnapshotFile, CorruptionIsRejected) {
  const TempDir dir;
  const std::string path = ft::snapshot_path(dir.str(), "snapshot", 1);
  ft::write_snapshot(path, sample_snapshot());

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x08;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)ft::read_snapshot(path), ft::FormatError);
}

TEST(SnapshotFile, InconsistentSectionSizesAreRejected) {
  const TempDir dir;
  const std::string path = ft::snapshot_path(dir.str(), "snapshot", 1);
  ft::EngineSnapshot bad = sample_snapshot();
  bad.values.pop_back();  // no longer num_slots * value_size
  ft::write_snapshot(path, bad);
  EXPECT_THROW((void)ft::read_snapshot(path), ft::FormatError);
}

TEST(SnapshotFile, LatestAndPrune) {
  const TempDir dir;
  for (const std::uint64_t step : {2u, 5u, 9u, 10u}) {
    ft::write_snapshot(ft::snapshot_path(dir.str(), "snapshot", step),
                       sample_snapshot());
  }
  // A different basename and a non-snapshot file must not confuse either
  // helper.
  ft::write_snapshot(ft::snapshot_path(dir.str(), "other", 99),
                     sample_snapshot());
  std::ofstream(dir.str() + "/snapshot.notanumber.ipsnap") << "x";

  ft::SnapshotDirectory snapshots(dir.str(), "snapshot", nullptr, 2);
  const auto latest = snapshots.newest_valid();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->path, ft::snapshot_path(dir.str(), "snapshot", 10));

  snapshots.prune();
  EXPECT_FALSE(std::filesystem::exists(
      ft::snapshot_path(dir.str(), "snapshot", 2)));
  EXPECT_FALSE(std::filesystem::exists(
      ft::snapshot_path(dir.str(), "snapshot", 5)));
  EXPECT_TRUE(std::filesystem::exists(
      ft::snapshot_path(dir.str(), "snapshot", 9)));
  EXPECT_TRUE(std::filesystem::exists(
      ft::snapshot_path(dir.str(), "snapshot", 10)));
  EXPECT_TRUE(std::filesystem::exists(
      ft::snapshot_path(dir.str(), "other", 99)));

  EXPECT_FALSE(
      ft::SnapshotDirectory(dir.str(), "missing").newest_valid().has_value());
}

// ---- engine capture / restore ------------------------------------------

TEST(EngineCheckpoint, HeavyweightRoundTripRestoresValues) {
  const CsrGraph g = make_graph(graph::rmat(7, 4, {.seed = 17}));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> engine(g);
  (void)engine.run();
  const ft::EngineSnapshot snap =
      engine.capture_state(ft::CheckpointMode::kHeavyweight);
  EXPECT_EQ(snap.meta.num_vertices, g.num_vertices());
  EXPECT_EQ(snap.meta.value_size, sizeof(graph::vid_t));

  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> fresh(g);
  fresh.restore_state(snap);
  ASSERT_EQ(fresh.values().size(), engine.values().size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    EXPECT_EQ(fresh.values()[s], engine.values()[s]) << "slot " << s;
  }
}

TEST(EngineCheckpoint, RejectsSnapshotFromDifferentGraph) {
  // Same |V| and |E|, different edges: the shape check passes, the
  // fingerprint must catch it.
  const CsrGraph a = make_graph(graph::path_graph(64));
  EdgeList shifted;
  for (graph::vid_t v = 0; v + 1 < 64; ++v) {
    shifted.add(63 - v, 62 - v);
  }
  const CsrGraph b = make_graph(shifted);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());

  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> on_a(a);
  (void)on_a.run();
  const ft::EngineSnapshot snap =
      on_a.capture_state(ft::CheckpointMode::kHeavyweight);

  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> on_b(b);
  EXPECT_THROW(on_b.restore_state(snap), ft::SnapshotMismatch);
}

TEST(EngineCheckpoint, HeavyweightRejectsIncompatibleVersion) {
  const CsrGraph g = make_graph(graph::rmat(6, 4, {.seed = 3}));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> push(g);
  (void)push.run();
  const ft::EngineSnapshot snap =
      push.capture_state(ft::CheckpointMode::kHeavyweight);

  // Push mailboxes cannot restore into a pull engine...
  Engine<apps::Hashmin, CombinerKind::kPull, true> pull(g);
  EXPECT_THROW(pull.restore_state(snap), ft::SnapshotMismatch);
  // ...nor across a selection-bypass mismatch...
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> no_bypass(g);
  EXPECT_THROW(no_bypass.restore_state(snap), ft::SnapshotMismatch);
  // ...but the two push combiners share a mailbox layout.
  Engine<apps::Hashmin, CombinerKind::kMutexPush, true> mutex_push(g);
  EXPECT_NO_THROW(mutex_push.restore_state(snap));
}

TEST(EngineCheckpoint, LightweightCrossesVersionsFreely) {
  const CsrGraph g = make_graph(graph::rmat(6, 4, {.seed = 3}));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> push(g);
  (void)push.run();
  const ft::EngineSnapshot snap =
      push.capture_state(ft::CheckpointMode::kLightweight);

  Engine<apps::Hashmin, CombinerKind::kPull, false> pull(g);
  EXPECT_NO_THROW(pull.restore_state(snap));
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    EXPECT_EQ(pull.values()[s], push.values()[s]) << "slot " << s;
  }
}

TEST(EngineCheckpoint, LightweightNeedsResendCapableProgram) {
  EdgeList edges;
  edges.add(0, 1, 4);
  edges.add(1, 2, 2);
  const CsrGraph g = make_graph(edges);
  // WeightedSssp has no resend hook: lightweight capture must be refused.
  Engine<apps::WeightedSssp, CombinerKind::kSpinlockPush, true> engine(
      g, apps::WeightedSssp{.source = 0});
  (void)engine.run();
  EXPECT_THROW((void)engine.capture_state(ft::CheckpointMode::kLightweight),
               std::invalid_argument);
  EXPECT_NO_THROW(
      (void)engine.capture_state(ft::CheckpointMode::kHeavyweight));
}

TEST(EngineCheckpoint, LightweightRejectsAggregatorPrograms) {
  const CsrGraph g = make_graph(graph::rmat(6, 4, {.seed = 5}));
  Engine<apps::PageRankConverging, CombinerKind::kSpinlockPush, false>
      engine(g, apps::PageRankConverging{.epsilon = 1e-6});
  (void)engine.run();
  EXPECT_THROW((void)engine.capture_state(ft::CheckpointMode::kLightweight),
               std::invalid_argument);
  // Heavyweight carries the folded aggregate and works.
  const ft::EngineSnapshot snap =
      engine.capture_state(ft::CheckpointMode::kHeavyweight);
  EXPECT_EQ(snap.aggregate.size(), sizeof(double));
}

TEST(EngineCheckpoint, RunnerRejectsResumeOnWrongGraphOrVersion) {
  const TempDir dir;
  const CsrGraph g = make_graph(graph::rmat(7, 4, {.seed = 29}));
  EngineOptions options;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.directory = dir.str();
  const VersionId version{CombinerKind::kSpinlockPush, true};
  (void)run_version(g, apps::Hashmin{}, version, options);
  const auto snap_path = ipregel::testing::newest_snapshot(dir.str());
  ASSERT_TRUE(snap_path.has_value());
  const ft::EngineSnapshot snap = ft::read_snapshot(*snap_path);

  // Wrong graph: rejected before any state is restored.
  const CsrGraph other = make_graph(graph::rmat(7, 4, {.seed = 30}));
  EXPECT_THROW((void)run_version(other, apps::Hashmin{}, version,
                                 EngineOptions{}, nullptr, nullptr, &snap),
               ft::SnapshotMismatch);
  // Heavyweight snapshot, incompatible version: rejected.
  EXPECT_THROW((void)run_version(g, apps::Hashmin{},
                                 VersionId{CombinerKind::kPull, true},
                                 EngineOptions{}, nullptr, nullptr, &snap),
               ft::SnapshotMismatch);
}

TEST(GraphFingerprint, SensitiveToContentNotJustShape) {
  const CsrGraph a = make_graph(graph::path_graph(40));
  EdgeList reversed;
  for (graph::vid_t v = 0; v + 1 < 40; ++v) {
    reversed.add(v + 1, v);
  }
  const CsrGraph b = make_graph(reversed);
  EXPECT_NE(ft::graph_fingerprint(a), ft::graph_fingerprint(b));
  EXPECT_EQ(ft::graph_fingerprint(a), ft::graph_fingerprint(a));
}

}  // namespace
}  // namespace ipregel
