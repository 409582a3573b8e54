// The tentpole property: kill a run mid-superstep with a deterministic
// injected fault, recover from the last checkpoint, and require the final
// vertex values to be IDENTICAL to an uninterrupted run — for PageRank,
// SSSP, and Hashmin, under every applicable framework version, in both
// heavyweight and lightweight checkpoint modes.
//
// Determinism fine print: min-combined programs (SSSP, Hashmin) are
// combine-order independent, so they are exact at any thread count. The
// pull combiner gathers in fixed in-neighbour order, so PageRank/pull is
// exact at any thread count too. PageRank under a *push* combiner sums
// messages in delivery order, which is only reproducible single-threaded —
// those cases run with threads = 1 (two clean multi-threaded PageRank/push
// runs do not match bit-for-bit either; that is floating-point addition,
// not checkpointing).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/runner.hpp"
#include "ft/fault.hpp"
#include "ft/snapshot.hpp"
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
            (std::string("ipregel_rec_") + info->name() + "_" + label))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Crash a run at a seed-derived point, recover from the newest snapshot,
/// and require bit-identical final values vs. the uninterrupted run.
template <typename Program>
void expect_crash_equivalence(const CsrGraph& g, Program program,
                              VersionId version, ft::CheckpointMode mode,
                              std::size_t threads, std::uint64_t fault_seed,
                              const std::string& tag) {
  SCOPED_TRACE(tag + " / " + std::string(version_name(version)) + " / " +
               std::string(to_string(mode)) + " / seed " +
               std::to_string(fault_seed));

  EngineOptions base;
  base.threads = threads;

  std::vector<typename Program::value_type> clean;
  const RunResult clean_result =
      run_version(g, program, version, base, nullptr, &clean);
  ASSERT_GE(clean_result.supersteps, 3u)
      << "workload too short to crash meaningfully";

  const TempDir dir(std::string(to_string(mode)) + "_" +
                    std::to_string(fault_seed) +
                    (version.selection_bypass ? "_b" : "_s") +
                    std::string(to_string(version.combiner)));
  EngineOptions crashing = base;
  crashing.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  crashing.checkpoint.every = 1;
  crashing.checkpoint.mode = mode;
  crashing.checkpoint.directory = dir.str();
  crashing.fault = ft::FaultPlan::from_seed(
      fault_seed, 1, clean_result.supersteps - 1,
      fault_seed == 0 ? 0 : g.num_vertices() / 3);

  bool crashed = false;
  try {
    (void)run_version(g, program, version, crashing);
  } catch (const ft::InjectedFault&) {
    crashed = true;
  }
  if (!crashed) {
    // The crash point asked for more compute calls than that superstep
    // executed (possible for seeds > 0 on sparse frontiers); the run
    // simply finished. Seed 0 always trips before the first vertex.
    ASSERT_GT(crashing.fault.after_compute_calls, 0u)
        << "fault with after_compute_calls = 0 failed to trip";
    return;
  }

  const auto snapshot = ipregel::testing::newest_snapshot(dir.str());
  ASSERT_TRUE(snapshot.has_value()) << "crash left no snapshot behind";
  const ft::EngineSnapshot loaded = ft::read_snapshot(*snapshot);
  const ft::SnapshotMeta& meta = loaded.meta;
  ASSERT_LE(meta.superstep, crashing.fault.superstep);

  std::vector<typename Program::value_type> recovered;
  const RunResult resumed = run_version(g, program, version, base, nullptr,
                                        &recovered, &loaded);
  EXPECT_EQ(resumed.supersteps, clean_result.supersteps)
      << "resumed run converged after a different number of supersteps";
  ASSERT_EQ(recovered.size(), clean.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(recovered[s], clean[s])
        << "value diverged at slot " << s << " (id " << g.id_of(s)
        << "); crash was in superstep " << crashing.fault.superstep
        << ", recovered from superstep " << meta.superstep;
  }
}

constexpr std::uint64_t kFaultSeeds[] = {0, 11, 42};

TEST(CrashEquivalence, SsspAllVersionsBothModes) {
  const CsrGraph g = make_graph(graph::rmat(8, 5, {.seed = 7}));
  const apps::Sssp program{};  // source vertex 2, as in the paper
  for (const VersionId v : applicable_versions<apps::Sssp>()) {
    for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                          ft::CheckpointMode::kLightweight}) {
      for (const std::uint64_t seed : kFaultSeeds) {
        expect_crash_equivalence(g, program, v, mode, 4, seed, "sssp");
      }
    }
  }
}

TEST(CrashEquivalence, SsspLongWavefrontOnGrid) {
  // A grid drives a long, narrow wavefront: dozens of supersteps, so the
  // crash superstep and the snapshot it resumes from are far apart from
  // the run's start and end.
  const CsrGraph g =
      make_graph(graph::grid_2d(16, 16, {.removal_fraction = 0.0}));
  const apps::Sssp program{.source = 0};
  const VersionId v{CombinerKind::kSpinlockPush, true};
  for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                        ft::CheckpointMode::kLightweight}) {
    for (const std::uint64_t seed : kFaultSeeds) {
      expect_crash_equivalence(g, program, v, mode, 4, seed, "sssp-grid");
    }
  }
}

TEST(CrashEquivalence, HashminAllVersionsBothModes) {
  graph::EdgeList edges = graph::uniform_random(220, 420, 13);
  edges.symmetrize();
  const CsrGraph g = make_graph(edges);
  for (const VersionId v : applicable_versions<apps::Hashmin>()) {
    for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                          ft::CheckpointMode::kLightweight}) {
      for (const std::uint64_t seed : kFaultSeeds) {
        expect_crash_equivalence(g, apps::Hashmin{}, v, mode, 4, seed,
                                 "hashmin");
      }
    }
  }
}

TEST(CrashEquivalence, PageRankAllVersionsBothModes) {
  const CsrGraph g = make_graph(graph::rmat(8, 5, {.seed = 23}));
  const apps::PageRank program{.rounds = 12};
  for (const VersionId v : applicable_versions<apps::PageRank>()) {
    // Push combining sums in delivery order: single-threaded for exact
    // reproducibility. Pull gathers in fixed order: any thread count.
    const std::size_t threads =
        v.combiner == CombinerKind::kPull ? 4 : 1;
    for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                          ft::CheckpointMode::kLightweight}) {
      for (const std::uint64_t seed : kFaultSeeds) {
        expect_crash_equivalence(g, program, v, mode, threads, seed,
                                 "pagerank");
      }
    }
  }
}

TEST(CrashEquivalence, LightweightSnapshotResumesUnderDifferentVersion) {
  // The lightweight extra: crash under spinlock+bypass, recover under the
  // pull combiner. Hashmin is min-combined, so the cross-version resume
  // must still land on the identical fixpoint.
  graph::EdgeList edges = graph::uniform_random(180, 360, 31);
  edges.symmetrize();
  const CsrGraph g = make_graph(edges);

  EngineOptions base;
  base.threads = 4;
  std::vector<graph::vid_t> clean;
  const RunResult clean_result =
      run_version(g, apps::Hashmin{},
                  VersionId{CombinerKind::kSpinlockPush, true}, base,
                  nullptr, &clean);
  ASSERT_GE(clean_result.supersteps, 3u);

  const TempDir dir("xver");
  EngineOptions crashing = base;
  crashing.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  crashing.checkpoint.every = 1;
  crashing.checkpoint.mode = ft::CheckpointMode::kLightweight;
  crashing.checkpoint.directory = dir.str();
  crashing.fault.superstep = clean_result.supersteps / 2;
  crashing.fault.after_compute_calls = 0;
  EXPECT_THROW((void)run_version(g, apps::Hashmin{},
                                 VersionId{CombinerKind::kSpinlockPush, true},
                                 crashing),
               ft::InjectedFault);

  const auto snapshot = ipregel::testing::newest_snapshot(dir.str());
  ASSERT_TRUE(snapshot.has_value());
  const ft::EngineSnapshot loaded = ft::read_snapshot(*snapshot);
  std::vector<graph::vid_t> recovered;
  (void)run_version(g, apps::Hashmin{}, VersionId{CombinerKind::kPull, true},
                    base, nullptr, &recovered, &loaded);
  ASSERT_EQ(recovered.size(), clean.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(recovered[s], clean[s]) << "slot " << s;
  }
}

TEST(CrashEquivalence, PullBarrierSnapshotResumesFixedAndAdaptive) {
  // A direction-optimising run checkpoints at a barrier that follows a
  // pull superstep, so the pending generation holds armed outboxes, not
  // inboxes. Heavyweight capture gathers it into the push layout (inbox
  // plus a frontier of exactly the flagged slots), lightweight capture
  // has no messages at all; either way the snapshot must resume
  // bit-identically under the fixed engine and the adaptive one.
  const CsrGraph g =
      make_graph(graph::grid_2d(20, 20, {.removal_fraction = 0.0}));
  for (const CombinerKind combiner :
       {CombinerKind::kMutexPush, CombinerKind::kSpinlockPush}) {
    const VersionId version{combiner, true};
    EngineOptions base;
    base.threads = 4;
    base.collect_superstep_stats = true;
    std::vector<graph::vid_t> clean;
    const RunResult clean_result =
        run_version(g, apps::Hashmin{}, version, base, nullptr, &clean);
    // The barrier before superstep `at` follows a pull superstep.
    const std::size_t at = 5;
    ASSERT_GT(clean_result.supersteps, at + 2);
    ASSERT_EQ(clean_result.per_superstep[at - 1].direction, Direction::kPull)
        << "the lattice's dense wave should still be pulling at superstep "
        << at - 1;
    for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                          ft::CheckpointMode::kLightweight}) {
      SCOPED_TRACE(std::string(version_name(version)) + " / " +
                   std::string(to_string(mode)));
      const TempDir dir(std::string(to_string(mode)) +
                        std::string(to_string(combiner)));
      EngineOptions crashing = base;
      crashing.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
      crashing.checkpoint.every = 1;
      crashing.checkpoint.mode = mode;
      crashing.checkpoint.directory = dir.str();
      crashing.fault.superstep = at;
      crashing.fault.after_compute_calls = 0;
      EXPECT_THROW((void)run_version(g, apps::Hashmin{}, version, crashing),
                   ft::InjectedFault);
      const auto path = ipregel::testing::newest_snapshot(dir.str());
      ASSERT_TRUE(path.has_value());
      const ft::EngineSnapshot snap = ft::read_snapshot(*path);
      ASSERT_EQ(snap.meta.superstep, at);
      if (mode == ft::CheckpointMode::kHeavyweight) {
        std::vector<std::uint64_t> flagged;
        for (std::size_t s = 0; s < snap.inbox_flags.size(); ++s) {
          if (snap.inbox_flags[s] != 0) {
            flagged.push_back(s);
          }
        }
        EXPECT_FALSE(flagged.empty());
        EXPECT_EQ(snap.frontier, flagged)
            << "a gathered capture lists exactly the flagged slots";
      }
      for (const bool fixed : {true, false}) {
        SCOPED_TRACE(fixed ? "resumed fixed" : "resumed adaptive");
        EngineOptions resume = base;
        resume.fixed_direction = fixed;
        std::vector<graph::vid_t> recovered;
        const RunResult resumed = run_version(
            g, apps::Hashmin{}, version, resume, nullptr, &recovered, &snap);
        EXPECT_EQ(resumed.supersteps, clean_result.supersteps);
        ASSERT_EQ(recovered, clean);
      }
    }
  }
}

}  // namespace
}  // namespace ipregel
