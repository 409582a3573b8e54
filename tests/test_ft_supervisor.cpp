// Supervisor property: a run that faults N times under a deterministic
// per-attempt FaultPlan schedule, retried by ft::supervise from its
// checkpoints, must finish with values bit-identical to an uninterrupted
// run — for PageRank, SSSP, and Hashmin. Plus the retry-policy mechanics:
// attempt budgets, non-retryable kinds, retry-from-scratch without a
// checkpoint directory, and backoff accounting; and that a resumed attempt
// reads its snapshot once.
//
// Determinism fine print matches tests/test_ft_recovery.cpp: min-combined
// programs (SSSP, Hashmin) and PageRank under the pull combiner are exact
// at any thread count; PageRank under a push combiner runs with
// threads = 1 (floating-point sums in delivery order).

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/runner.hpp"
#include "ft/supervisor.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
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
            (std::string("ipregel_sup_") + info->name() + "_" + label))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Fails at compute() unconditionally — the non-retryable failure kind.
struct AlwaysThrows {
  using value_type = graph::vid_t;
  using message_type = graph::vid_t;
  static constexpr bool broadcast_only = true;
  static constexpr bool always_halts = true;

  [[nodiscard]] graph::vid_t initial_value(graph::vid_t id) const noexcept {
    return id;
  }
  void compute(auto&) const {
    throw std::runtime_error("deterministic failure");
  }
  void resend(auto& ctx) const { ctx.broadcast(ctx.value()); }
  static void combine(graph::vid_t& old,
                      const graph::vid_t& incoming) noexcept {
    old = std::min(old, incoming);
  }
};

/// Three faults at distinct supersteps, each before the first compute call
/// of its superstep — guaranteed to trip as long as the superstep executes
/// at least one vertex.
std::vector<ft::FaultPlan> three_faults(std::size_t s0, std::size_t s1,
                                        std::size_t s2) {
  return {ft::FaultPlan{.superstep = s0, .after_compute_calls = 0},
          ft::FaultPlan{.superstep = s1, .after_compute_calls = 0},
          ft::FaultPlan{.superstep = s2, .after_compute_calls = 0}};
}

/// Clean run vs. supervised run under a 3-fault schedule with per-superstep
/// checkpoints: the supervised run must take exactly 4 attempts (proving
/// all three faults tripped), resume from a snapshot on each retry, and
/// end bit-identical.
template <typename Program>
void expect_supervised_equivalence(const CsrGraph& g, Program program,
                                   VersionId version, ft::CheckpointMode mode,
                                   std::size_t threads,
                                   const std::string& tag) {
  SCOPED_TRACE(tag + " / " + std::string(version_name(version)) + " / " +
               std::string(to_string(mode)));

  EngineOptions base;
  base.threads = threads;

  std::vector<typename Program::value_type> clean;
  const RunResult clean_result =
      run_version(g, program, version, base, nullptr, &clean);
  ASSERT_GE(clean_result.supersteps, 5u)
      << "workload too short for a 3-fault schedule";
  const std::size_t last = clean_result.supersteps - 1;

  const TempDir dir(tag + (version.selection_bypass ? "_b" : "_s") +
                    std::string(to_string(version.combiner)) + "_" +
                    std::string(to_string(mode)));
  EngineOptions supervised = base;
  supervised.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  supervised.checkpoint.every = 1;
  supervised.checkpoint.mode = mode;
  supervised.checkpoint.directory = dir.str();

  ft::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.fault_schedule = three_faults(1, last / 2 + 1, last);

  std::vector<typename Program::value_type> recovered;
  const ft::SupervisedOutcome out = ft::supervise(
      g, program, version, supervised, policy, nullptr, &recovered);

  ASSERT_TRUE(out.ok()) << "supervisor gave up: " << out.error->what();
  EXPECT_EQ(out.attempts, 4u) << "a scheduled fault failed to trip";
  EXPECT_EQ(out.resumed_from_snapshot, 3u)
      << "a retry restarted from scratch despite available snapshots";
  EXPECT_EQ(out.result.supersteps, clean_result.supersteps);

  ASSERT_EQ(recovered.size(), clean.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(recovered[s], clean[s])
        << "value diverged at slot " << s << " (id " << g.id_of(s) << ")";
  }
}

TEST(Supervisor, ThreeFaultHashminBitIdentical) {
  const CsrGraph g = make_graph(graph::grid_2d(12, 12));
  for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                        ft::CheckpointMode::kLightweight}) {
    expect_supervised_equivalence(
        g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, true},
        mode, 4, "hashmin");
    expect_supervised_equivalence(g, apps::Hashmin{},
                                  VersionId{CombinerKind::kPull, false},
                                  mode, 4, "hashmin");
  }
}

TEST(Supervisor, ThreeFaultSsspBitIdentical) {
  const CsrGraph g =
      make_graph(graph::grid_2d(10, 10, {.max_weight = 9, .seed = 3}));
  for (const ft::CheckpointMode mode : {ft::CheckpointMode::kHeavyweight,
                                        ft::CheckpointMode::kLightweight}) {
    expect_supervised_equivalence(
        g, apps::Sssp{}, VersionId{CombinerKind::kSpinlockPush, true}, mode,
        4, "sssp");
    expect_supervised_equivalence(g, apps::Sssp{},
                                  VersionId{CombinerKind::kMutexPush, false},
                                  mode, 4, "sssp");
  }
}

TEST(Supervisor, ThreeFaultPageRankBitIdentical) {
  const CsrGraph g = make_graph(graph::rmat(8, 6, {.seed = 11}));
  const apps::PageRank program{.rounds = 10};
  // Push combiner: exact only single-threaded (see header comment).
  expect_supervised_equivalence(
      g, program, VersionId{CombinerKind::kSpinlockPush, false},
      ft::CheckpointMode::kHeavyweight, 1, "pagerank_push");
  // Pull gathers in fixed in-neighbour order: exact at any thread count.
  expect_supervised_equivalence(g, program,
                                VersionId{CombinerKind::kPull, false},
                                ft::CheckpointMode::kHeavyweight, 4,
                                "pagerank_pull");
}

TEST(Supervisor, ExhaustedAttemptBudgetReportsLastFault) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  const TempDir dir("exhausted");
  EngineOptions options;
  options.threads = 2;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.directory = dir.str();

  ft::RetryPolicy policy;
  policy.max_attempts = 2;  // three faults scheduled, budget for two
  policy.fault_schedule = three_faults(1, 2, 3);

  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, false},
      options, policy);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.error->kind(), RunErrorKind::kInjectedFault);
  EXPECT_EQ(out.error->superstep(), 2u) << "last failure should be reported";
}

TEST(Supervisor, UserExceptionNotRetriedByDefault) {
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  ft::RetryPolicy policy;
  policy.max_attempts = 5;
  const ft::SupervisedOutcome out = ft::supervise(
      g, AlwaysThrows{}, VersionId{CombinerKind::kSpinlockPush, false},
      EngineOptions{.threads = 2}, policy);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 1u) << "deterministic failures must not be retried";
  EXPECT_EQ(out.error->kind(), RunErrorKind::kUserException);
}

TEST(Supervisor, RetriesFromScratchWithoutCheckpointDirectory) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  ft::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.fault_schedule = {
      ft::FaultPlan{.superstep = 2, .after_compute_calls = 0}};

  std::vector<graph::vid_t> recovered;
  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, true},
      EngineOptions{.threads = 4}, policy, nullptr, &recovered);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.resumed_from_snapshot, 0u);

  std::vector<graph::vid_t> clean;
  (void)run_version(g, apps::Hashmin{},
                    VersionId{CombinerKind::kSpinlockPush, true},
                    EngineOptions{.threads = 4}, nullptr, &clean);
  EXPECT_EQ(recovered, clean);
}

TEST(Supervisor, CallerFaultPlanHonouredOnFirstAttemptOnly) {
  // An armed options.fault with an empty schedule must fire once, then be
  // disarmed for retries — otherwise the supervisor could never win.
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  const TempDir dir("fixed_plan");
  EngineOptions options;
  options.threads = 2;
  options.fault = ft::FaultPlan{.superstep = 1, .after_compute_calls = 0};
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.directory = dir.str();

  ft::RetryPolicy policy;
  policy.max_attempts = 3;

  std::vector<graph::vid_t> recovered;
  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, false},
      options, policy, nullptr, &recovered);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.resumed_from_snapshot, 1u);

  std::vector<graph::vid_t> clean;
  (void)run_version(g, apps::Hashmin{},
                    VersionId{CombinerKind::kSpinlockPush, false},
                    EngineOptions{.threads = 2}, nullptr, &clean);
  EXPECT_EQ(recovered, clean);
}

TEST(Supervisor, BackoffAccumulatesExponentially) {
  const CsrGraph g = make_graph(graph::grid_2d(6, 6));
  ft::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.fault_schedule = {
      ft::FaultPlan{.superstep = 1, .after_compute_calls = 0},
      ft::FaultPlan{.superstep = 1, .after_compute_calls = 0}};

  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, false},
      EngineOptions{.threads = 2}, policy);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 3u);
  // 10 ms before the first retry, 20 ms before the second.
  EXPECT_GE(out.backoff_seconds, 0.029);
  EXPECT_LT(out.backoff_seconds, 0.031);
}

TEST(Supervisor, ResumedAttemptReadsItsSnapshotOnce) {
  // The directory walk that picks the resume snapshot loads and verifies
  // it; the resumed engine must restore from those bytes, not read the
  // file a second time.
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  const VersionId version{CombinerKind::kSpinlockPush, true};
  std::vector<graph::vid_t> clean;
  (void)run_version(g, apps::Hashmin{}, version, EngineOptions{.threads = 2},
                    nullptr, &clean);

  io::FaultyVfs vfs;
  EngineOptions options;
  options.threads = 2;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 2;
  options.checkpoint.directory = "/ckpt";
  options.checkpoint.vfs = &vfs;
  // The planted crash: one attempt, killed in superstep 3, leaves the
  // snapshot of superstep 2 behind and nothing newer.
  ft::RetryPolicy crash;
  crash.max_attempts = 1;
  crash.fault_schedule = {
      ft::FaultPlan{.superstep = 3, .after_compute_calls = 0}};
  ASSERT_FALSE(
      ft::supervise(g, apps::Hashmin{}, version, options, crash).ok());
  ASSERT_EQ(ft::SnapshotDirectory("/ckpt", "snapshot", &vfs).list().size(),
            1u);

  // What the walk alone reads...
  vfs.set_read_plan({});
  ASSERT_TRUE(
      ft::SnapshotDirectory("/ckpt", "snapshot", &vfs).newest_valid());
  const std::uint64_t walk_reads = vfs.read_ops();
  ASSERT_GT(walk_reads, 0u);

  // ...is everything the resumed attempt reads (no further snapshot falls
  // due, so nothing else is read back).
  options.checkpoint.every = 1000;
  vfs.set_read_plan({});
  std::vector<graph::vid_t> resumed;
  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, version, options, {}, nullptr, &resumed);
  ASSERT_TRUE(out.ok()) << out.error->what();
  EXPECT_EQ(out.resumed_from_snapshot, 1u);
  EXPECT_EQ(vfs.read_ops(), walk_reads);
  EXPECT_EQ(resumed, clean);
}

}  // namespace
}  // namespace ipregel
