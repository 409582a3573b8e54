// Snapshot/program identity binding (snapshot format v2): every snapshot
// records program_fingerprint<P>() — application name plus value/message
// layout — and resume rejects a snapshot bound to a different program with
// a typed mismatch BEFORE any byte of state is reinterpreted. One test per
// mismatch axis (program identity, value layout, graph), the v1
// compatibility path (fingerprint 0 = check skipped), and the service-path
// contract: a mismatch is a permanent, non-retryable failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/program_traits.hpp"
#include "core/runner.hpp"
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
  explicit TempDir(const std::string& label) {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ipregel_bind_") + info->name() + "_" + label))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Runs `program` with per-superstep heavyweight checkpoints into `dir`
/// and returns the newest snapshot's path.
template <typename Program>
std::string checkpointed_run(const CsrGraph& g, Program program,
                             VersionId version, const std::string& dir) {
  EngineOptions options;
  options.threads = 2;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.mode = ft::CheckpointMode::kHeavyweight;
  options.checkpoint.directory = dir;
  (void)run_version(g, program, version, options);
  const auto newest = ipregel::testing::newest_snapshot(dir);
  EXPECT_TRUE(newest.has_value());
  return newest.value_or("");
}

// --- the fingerprint itself ----------------------------------------------

TEST(ProgramFingerprint, NonZeroStableAndProgramSpecific) {
  const std::uint64_t hashmin = program_fingerprint<apps::Hashmin>();
  EXPECT_NE(hashmin, 0u) << "0 is reserved for v1 snapshots";
  EXPECT_EQ(hashmin, program_fingerprint<apps::Hashmin>());
  // Same value/message layout (u32/u32), different application: the NAME
  // must separate them — layout alone cannot.
  EXPECT_NE(hashmin, program_fingerprint<apps::Sssp>());
  // Same algorithm family, different value layout (u32 vs u64).
  EXPECT_NE(program_fingerprint<apps::Sssp>(),
            program_fingerprint<apps::WeightedSssp>());
  EXPECT_NE(hashmin, program_fingerprint<apps::PageRank>());
}

TEST(ProgramFingerprint, RecordedInV2Snapshots) {
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("recorded");
  const std::string path = checkpointed_run(
      g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, false},
      dir.str());
  const ft::SnapshotMeta meta = ft::read_snapshot(path).meta;
  EXPECT_EQ(meta.format_version, ft::kSnapshotFormatVersion);
  EXPECT_EQ(meta.program_fingerprint, program_fingerprint<apps::Hashmin>());
}

// --- mismatch axes -------------------------------------------------------

TEST(SnapshotBinding, SameLayoutDifferentProgramRejected) {
  // Hashmin and SSSP share the exact byte layout (u32 value, u32 message,
  // broadcast-only, always-halts): before the binding, a Hashmin snapshot
  // resumed under SSSP parsed cleanly and silently reinterpreted component
  // labels as distances. Now it is a typed rejection.
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("cross_program");
  const VersionId version{CombinerKind::kSpinlockPush, false};
  const std::string path =
      checkpointed_run(g, apps::Hashmin{}, version, dir.str());
  const ft::EngineSnapshot snap = ft::read_snapshot(path);

  try {
    (void)run_version(g, apps::Sssp{}, version, EngineOptions{.threads = 2},
                      nullptr, nullptr, &snap);
    FAIL() << "cross-program resume must throw SnapshotMismatch";
  } catch (const ft::SnapshotMismatch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("program fingerprint"), std::string::npos) << what;
  }
}

TEST(SnapshotBinding, DifferentValueLayoutRejected) {
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("layout");
  const VersionId version{CombinerKind::kSpinlockPush, false};
  const std::string path =
      checkpointed_run(g, apps::Sssp{}, version, dir.str());
  const ft::EngineSnapshot snap = ft::read_snapshot(path);
  EXPECT_THROW((void)run_version(g, apps::WeightedSssp{}, version,
                                 EngineOptions{.threads = 2}, nullptr,
                                 nullptr, &snap),
               ft::SnapshotMismatch);
}

TEST(SnapshotBinding, DifferentGraphRejected) {
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("graph");
  const VersionId version{CombinerKind::kSpinlockPush, false};
  const std::string path =
      checkpointed_run(g, apps::Hashmin{}, version, dir.str());
  const CsrGraph other = make_graph(graph::grid_2d(6, 7));
  const ft::EngineSnapshot snap = ft::read_snapshot(path);
  try {
    (void)run_version(other, apps::Hashmin{}, version,
                      EngineOptions{.threads = 2}, nullptr, nullptr, &snap);
    FAIL() << "cross-graph resume must throw SnapshotMismatch";
  } catch (const ft::SnapshotMismatch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("graph fingerprint"), std::string::npos) << what;
  }
}

// --- v1 compatibility ----------------------------------------------------

TEST(SnapshotBinding, FingerprintZeroSkipsTheCheck) {
  // A v1-era snapshot decodes program_fingerprint == 0, which must mean
  // "unknown — accept" (rejecting would break every pre-v2 checkpoint
  // directory). Simulated by zeroing the field of a real snapshot.
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("v1_compat");
  const VersionId version{CombinerKind::kSpinlockPush, false};

  std::vector<graph::vid_t> clean;
  (void)run_version(g, apps::Hashmin{}, version,
                    EngineOptions{.threads = 2}, nullptr, &clean);

  const std::string path =
      checkpointed_run(g, apps::Hashmin{}, version, dir.str());
  ft::EngineSnapshot snap = ft::read_snapshot(path);
  ASSERT_NE(snap.meta.program_fingerprint, 0u);
  snap.meta.program_fingerprint = 0;
  ft::write_snapshot(path, snap);
  const ft::EngineSnapshot v1 = ft::read_snapshot(path);

  std::vector<graph::vid_t> resumed;
  const RunOutcome out =
      run_version_checked(g, apps::Hashmin{}, version,
                          EngineOptions{.threads = 2}, nullptr, &resumed,
                          &v1);
  ASSERT_TRUE(out.ok()) << out.error->what();
  EXPECT_EQ(resumed, clean);
}

// --- typed propagation through the service path --------------------------

TEST(SnapshotBinding, CheckedPathReturnsTypedMismatch) {
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("typed");
  const VersionId version{CombinerKind::kSpinlockPush, false};
  const std::string path =
      checkpointed_run(g, apps::Hashmin{}, version, dir.str());
  const ft::EngineSnapshot snap = ft::read_snapshot(path);

  const RunOutcome out = run_version_checked(
      g, apps::Sssp{}, version, EngineOptions{.threads = 2}, nullptr,
      nullptr, &snap);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kSnapshotMismatch);
  EXPECT_FALSE(out.error->retryable());
}

TEST(SnapshotBinding, SuperviseFailsFastWithoutRetry) {
  // A checkpoint directory full of some OTHER program's snapshots: the
  // supervisor must fail the run typed on the first attempt — retrying
  // cannot help (the same snapshot mismatches again), and silently
  // restarting from scratch would discard the caller's recovery intent.
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  const TempDir dir("supervise");
  const VersionId version{CombinerKind::kSpinlockPush, false};
  (void)checkpointed_run(g, apps::Hashmin{}, version, dir.str());

  EngineOptions options;
  options.threads = 2;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.directory = dir.str();
  ft::RetryPolicy policy;
  policy.max_attempts = 4;
  const ft::SupervisedOutcome out =
      ft::supervise(g, apps::Sssp{}, version, options, policy);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kSnapshotMismatch);
  EXPECT_EQ(out.attempts, 1u)
      << "a snapshot mismatch is permanent and must not be retried";
}

}  // namespace
}  // namespace ipregel
