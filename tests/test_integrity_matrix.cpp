// The integrity matrix — the headline silent-data-corruption property:
//
//   For a sweep of seeded bit flips across {PageRank, SSSP, Hashmin} ×
//   every applicable framework version (the paper's six, pinned to their
//   fixed behaviour, plus the direction-optimising spinlock+bypass engine)
//   × the detector tier aimed at that flip class, EVERY flip is either
//     (a) detected: the run fails typed with kIntegrityViolation, the
//         supervisor restores the newest pre-corruption snapshot, and the
//         recovered run finishes bit-identical to an uninterrupted one, or
//     (b) provably masked: the run completes and its final values are
//         bit-identical anyway (the flip landed where the engine never
//         reads — a dead mailbox slot, a frontier on a version that has
//         none or after a pull superstep, a superstep the run never
//         reached, a no-op SET).
//   Nothing in between: no silent wrong answer escapes.
//
// Flip classes per tier:
//   tier 1 (invariants)  — post-compute SET of a value's high bit: either
//                          breaks the program's conservation law (detected)
//                          or was already set (no-op, masked).
//   tier 2 (checksums)   — seeded at-rest XOR over all state sections.
//   tier 3 (shadow)      — post-compute XOR on a slot the shadow sampler
//                          is guaranteed to replay: always detected.
//
// Every failure reproduces from the logged seed: set
// IPREGEL_INTEGRITY_SEED to replay a sweep, IPREGEL_INTEGRITY_SOAK=1 to
// enlarge it (the weekly CI soak job does).
//
// Determinism fine print (matches tests/test_ft_supervisor.cpp): Hashmin
// and SSSP are min-combined and exact at any thread count; PageRank is
// exact under pull at any thread count but only single-threaded under the
// push combiners — thread counts below respect that so "bit-identical" is
// a meaningful oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/runner.hpp"
#include "ft/supervisor.hpp"
#include "graph/generators.hpp"
#include "integrity/fault.hpp"
#include "runtime/rng.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using graph::CsrGraph;
using ipregel::testing::make_graph;

std::uint64_t sweep_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 20260806;
    if (const char* env = std::getenv("IPREGEL_INTEGRITY_SEED")) {
      s = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
    }
    // Printed so the ctest log of any failure carries the replay recipe:
    // this one seed derives every graph, flip site, and shadow sample.
    std::cout << "integrity sweep seed: " << s
              << " (set IPREGEL_INTEGRITY_SEED to replay)\n";
    return s;
  }();
  return seed;
}

/// Seed for the randomised graph generators, derived from the sweep seed
/// so the whole matrix — workload included — replays from one integer.
std::uint64_t graph_seed() {
  return runtime::mix64(sweep_seed() ^ 0x6EA9);
}

bool soak_mode() {
  const char* env = std::getenv("IPREGEL_INTEGRITY_SOAK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

class TempDir {
 public:
  explicit TempDir(const std::string& label) {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ipregel_matrix_") + info->name() + "_" + label))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

/// Exact thread count for a (program, version): PageRank under push
/// combiners is only bit-reproducible single-threaded.
template <typename Program>
std::size_t exact_threads(VersionId version) {
  if constexpr (std::is_same_v<Program, apps::PageRank>) {
    return version.combiner == CombinerKind::kPull ? 2 : 1;
  }
  (void)version;
  return 2;
}

/// One column of the matrix: a paper version pinned to its fixed
/// behaviour, or the direction-optimising engine of that version.
struct Column {
  Column(VersionId v, bool a = false) : version(v), adaptive(a) {}  // NOLINT
  VersionId version;
  bool adaptive;

  [[nodiscard]] std::string name() const {
    return std::string(version_name(version)) + (adaptive ? " (adaptive)" : "");
  }
};

/// The paper's applicable versions, fixed, then the adaptive column for
/// programs it applies to (broadcast-only, always-halting).
template <typename Program>
std::vector<Column> columns() {
  std::vector<Column> out;
  for (const VersionId v : applicable_versions<Program>()) {
    out.emplace_back(v);
  }
  if constexpr (Program::broadcast_only && Program::always_halts) {
    out.emplace_back(VersionId{CombinerKind::kSpinlockPush, true}, true);
  }
  return out;
}

enum class Expect : std::uint8_t {
  kDetectOrMasked,  ///< either branch of the headline property
  kMustDetect,      ///< flip constructed so masking is impossible
};

/// One cell of the matrix: clean run vs. supervised run under `flip` with
/// the given detector tiers. Asserts the headline property.
template <typename Program>
void run_cell(const CsrGraph& g, Program program, Column column,
              const integrity::IntegrityOptions& tiers,
              const integrity::FlipPlan& flip, Expect expect,
              const std::vector<typename Program::value_type>& clean,
              std::size_t clean_supersteps, const std::string& tag) {
  const VersionId version = column.version;
  SCOPED_TRACE(tag + " / " + column.name() +
               " / flip{superstep=" + std::to_string(flip.superstep) +
               ", target=" + std::string(to_string(flip.target)) +
               ", phase=" + std::string(to_string(flip.phase)) +
               ", index=" + std::to_string(flip.index) +
               ", bit=" + std::to_string(flip.bit) + "}");

  const TempDir dir(tag);
  EngineOptions options;
  options.threads = exact_threads<Program>(version);
  options.fixed_direction = !column.adaptive;
  options.integrity = tiers;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.mode = ft::CheckpointMode::kHeavyweight;
  options.checkpoint.directory = dir.str();

  ft::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.flip_schedule = {flip};

  std::vector<typename Program::value_type> recovered;
  const ft::SupervisedOutcome out = ft::supervise(
      g, program, version, options, policy, nullptr, &recovered);

  ASSERT_TRUE(out.ok()) << "supervisor could not recover: "
                        << out.error->what();
  if (out.integrity_violations > 0) {
    // Detected: one failed attempt, one snapshot-resumed recovery.
    EXPECT_EQ(out.attempts, 2u);
    EXPECT_EQ(out.resumed_from_snapshot, 1u)
        << "recovery restarted from scratch despite checkpoints";
  } else {
    // Masked: the run must not have noticed anything...
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(expect, Expect::kDetectOrMasked)
        << "this flip was constructed to be undeniably detectable";
  }
  // ...and in BOTH branches the final values must be bit-identical to the
  // uninterrupted run: detected ⇒ recovery healed it; undetected ⇒ the
  // flip provably never influenced the computation.
  EXPECT_EQ(out.result.supersteps, clean_supersteps);
  ASSERT_EQ(recovered.size(), clean.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(recovered[s], clean[s])
        << "SILENT CORRUPTION ESCAPED at slot " << s << " (id "
        << g.id_of(s) << ")";
  }
}

/// Clean reference run for one (program, version).
template <typename Program>
RunResult clean_run(const CsrGraph& g, Program program, Column column,
                    std::vector<typename Program::value_type>& out) {
  EngineOptions options;
  options.threads = exact_threads<Program>(column.version);
  options.fixed_direction = !column.adaptive;
  return run_version(g, program, column.version, options, nullptr, &out);
}

// --- tier 2: at-rest checksum sweep --------------------------------------

/// Seeded at-rest XOR flips over every state section, every applicable
/// version. Detect-or-masked: a flip may land in a dead mailbox slot or
/// target the frontier of a version that has none.
template <typename Program>
void checksum_sweep(const CsrGraph& g, Program program,
                    const std::string& tag) {
  const std::uint64_t seed = sweep_seed();
  const std::size_t flips_per_version = soak_mode() ? 24 : 3;
  integrity::IntegrityOptions tiers;
  tiers.checksums = true;
  std::size_t case_index = 0;
  for (const Column column : columns<Program>()) {
    const VersionId version = column.version;
    std::vector<typename Program::value_type> clean;
    const RunResult ref = clean_run(g, program, column, clean);
    ASSERT_GE(ref.supersteps, 3u) << "workload too short to corrupt";
    for (std::size_t i = 0; i < flips_per_version; ++i, ++case_index) {
      const integrity::FlipPlan flip = integrity::FlipPlan::from_seed(
          runtime::mix64(seed) ^ runtime::mix64(case_index), 1,
          ref.supersteps - 1, version.selection_bypass);
      run_cell(g, program, column, tiers, flip, Expect::kDetectOrMasked,
               clean, ref.supersteps,
               tag + "_t2_" + std::to_string(case_index));
    }
  }
}

TEST(IntegrityMatrix, ChecksumTierHashmin) {
  checksum_sweep(make_graph(graph::grid_2d(10, 10)), apps::Hashmin{},
                 "hashmin");
}

TEST(IntegrityMatrix, ChecksumTierSssp) {
  checksum_sweep(make_graph(graph::grid_2d(10, 10)), apps::Sssp{}, "sssp");
}

TEST(IntegrityMatrix, ChecksumTierPageRank) {
  checksum_sweep(make_graph(graph::rmat(7, 6, {.seed = graph_seed()})),
                 apps::PageRank{.rounds = 8}, "pagerank");
}

// --- tier 1: invariant-audit sweep ---------------------------------------

/// Post-compute SET of a high value bit at seeded (superstep, slot) sites.
/// `high_bit` is chosen per program so a fired flip either trips the
/// declared invariant or was a no-op — never a quiet sub-tolerance nudge.
template <typename Program>
void invariant_sweep(const CsrGraph& g, Program program,
                     std::uint32_t high_bit, Expect expect,
                     const std::string& tag) {
  const std::uint64_t seed = sweep_seed();
  const std::size_t flips_per_version = soak_mode() ? 12 : 3;
  integrity::IntegrityOptions tiers;
  tiers.invariants = true;
  std::size_t case_index = 0;
  for (const Column column : columns<Program>()) {
    std::vector<typename Program::value_type> clean;
    const RunResult ref = clean_run(g, program, column, clean);
    ASSERT_GE(ref.supersteps, 3u);
    runtime::SplitMix64 rng(runtime::mix64(seed) ^
                            runtime::mix64(0x7131 + case_index));
    for (std::size_t i = 0; i < flips_per_version; ++i, ++case_index) {
      integrity::FlipPlan flip;
      flip.superstep = 1 + rng.next() % (ref.supersteps - 1);
      flip.target = integrity::FlipTarget::kValues;
      flip.phase = integrity::FlipPhase::kPostCompute;
      flip.op = integrity::FlipOp::kSet;
      flip.index = rng.next();
      flip.bit = high_bit;
      run_cell(g, program, column, tiers, flip, expect, clean,
               ref.supersteps, tag + "_t1_" + std::to_string(case_index));
    }
  }
}

TEST(IntegrityMatrix, InvariantTierHashmin) {
  // Labels are vertex ids (< 2^30 here): SET bit 30 always lifts the label
  // above its id — masking is impossible.
  invariant_sweep(make_graph(graph::grid_2d(10, 10)), apps::Hashmin{}, 30,
                  Expect::kMustDetect, "hashmin");
}

TEST(IntegrityMatrix, InvariantTierSssp) {
  // A finite distance jumps past |V| (detected); a kInfinity slot already
  // has bit 30 set (no-op, masked).
  invariant_sweep(make_graph(graph::grid_2d(10, 10)), apps::Sssp{}, 30,
                  Expect::kDetectOrMasked, "sssp");
}

TEST(IntegrityMatrix, InvariantTierPageRank) {
  // Ranks live in (0, 1): their exponent's top bit is always clear, so
  // SET bit 62 always explodes the rank past the total mass — masking is
  // impossible.
  invariant_sweep(make_graph(graph::rmat(7, 6, {.seed = graph_seed()})),
                  apps::PageRank{.rounds = 8}, 62, Expect::kMustDetect,
                  "pagerank");
}

// --- tier 3: shadow-recompute sweep --------------------------------------

/// Post-compute XOR aimed at a slot the shadow sampler replays in that
/// superstep: the stored value can no longer match the replay, so every
/// fired flip is detected.
template <typename Program>
void shadow_sweep(const CsrGraph& g, Program program,
                  const std::string& tag) {
  const std::uint64_t seed = sweep_seed();
  const std::size_t flips_per_version = soak_mode() ? 8 : 2;
  integrity::IntegrityOptions tiers;
  tiers.shadow = true;
  tiers.shadow_samples = 8;
  tiers.shadow_seed = runtime::mix64(seed ^ 0x5AD0);
  const std::size_t first = g.first_slot();
  const std::size_t n = g.num_slots() - first;
  std::size_t case_index = 0;
  for (const Column column : columns<Program>()) {
    std::vector<typename Program::value_type> clean;
    const RunResult ref = clean_run(g, program, column, clean);
    ASSERT_GE(ref.supersteps, 3u);
    runtime::SplitMix64 rng(runtime::mix64(seed) ^
                            runtime::mix64(0x5AD1 + case_index));
    for (std::size_t i = 0; i < flips_per_version; ++i, ++case_index) {
      const std::size_t superstep = 1 + rng.next() % (ref.supersteps - 1);
      const auto sampled = integrity::shadow_sample(
          tiers.shadow_seed, superstep, first, n, tiers.shadow_samples);
      ASSERT_FALSE(sampled.empty());
      integrity::FlipPlan flip;
      flip.superstep = superstep;
      flip.target = integrity::FlipTarget::kValues;
      flip.phase = integrity::FlipPhase::kPostCompute;
      flip.op = integrity::FlipOp::kXor;
      flip.index = sampled[rng.next() % sampled.size()] - first;
      flip.bit = static_cast<std::uint32_t>(
          rng.next() % (sizeof(typename Program::value_type) * 8));
      run_cell(g, program, column, tiers, flip, Expect::kMustDetect,
               clean, ref.supersteps, tag + "_t3_" + std::to_string(case_index));
    }
  }
}

TEST(IntegrityMatrix, ShadowTierHashmin) {
  shadow_sweep(make_graph(graph::grid_2d(10, 10)), apps::Hashmin{},
               "hashmin");
}

TEST(IntegrityMatrix, ShadowTierSssp) {
  shadow_sweep(make_graph(graph::grid_2d(10, 10)), apps::Sssp{}, "sssp");
}

// --- zero-injection false-positive soak ----------------------------------

/// All three tiers armed at once, NO flip injected: every program × every
/// version must complete first-try with values bit-identical to a detector-
/// free run. A detector that cries wolf would turn healthy production runs
/// into spurious retries — this is the matrix's specificity half.
template <typename Program>
void false_positive_soak(const CsrGraph& g, Program program,
                         const std::string& tag) {
  integrity::IntegrityOptions tiers;
  tiers.invariants = true;
  tiers.checksums = true;
  tiers.shadow = true;
  tiers.shadow_samples = soak_mode() ? 32 : 8;
  tiers.shadow_seed = runtime::mix64(sweep_seed() ^ 0xC1EA);
  for (const Column column : columns<Program>()) {
    const VersionId version = column.version;
    SCOPED_TRACE(tag + " / " + column.name());
    std::vector<typename Program::value_type> clean;
    const RunResult ref = clean_run(g, program, column, clean);

    const TempDir dir(tag + "_fp");
    EngineOptions options;
    options.threads = exact_threads<Program>(version);
    options.fixed_direction = !column.adaptive;
    options.integrity = tiers;
    options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
    options.checkpoint.every = 1;
    options.checkpoint.directory = dir.str();
    std::vector<typename Program::value_type> audited;
    const ft::SupervisedOutcome out = ft::supervise(
        g, program, version, options, ft::RetryPolicy{}, nullptr, &audited);
    ASSERT_TRUE(out.ok()) << "FALSE POSITIVE: " << out.error->what();
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.integrity_violations, 0u);
    EXPECT_EQ(out.result.supersteps, ref.supersteps);
    EXPECT_EQ(audited, clean)
        << "detectors must observe, never perturb";
  }
}

TEST(IntegrityMatrix, NoInjectionNoFalsePositiveHashmin) {
  false_positive_soak(make_graph(graph::grid_2d(10, 10)), apps::Hashmin{},
                      "hashmin");
}

TEST(IntegrityMatrix, NoInjectionNoFalsePositiveSssp) {
  false_positive_soak(make_graph(graph::grid_2d(10, 10)), apps::Sssp{},
                      "sssp");
}

TEST(IntegrityMatrix, NoInjectionNoFalsePositivePageRank) {
  false_positive_soak(make_graph(graph::rmat(7, 6, {.seed = graph_seed()})),
                      apps::PageRank{.rounds = 8}, "pagerank");
}

// --- checksum cadence ----------------------------------------------------

TEST(IntegrityMatrix, SparseChecksumCadenceCoversOnlyItsBarriers) {
  // checksum_every = 4 stores digests only at supersteps divisible by 4
  // and verifies each at the very next at-rest window — so the cadence
  // knob trades COVERAGE for throughput, not detection latency: an
  // at-rest flip in a covered superstep (8) is still caught, while one in
  // an uncovered superstep (6) has no baseline to be compared against and
  // escapes. Both halves are pinned so the knob's real contract is a test
  // failure away from being silently changed.
  const CsrGraph g = make_graph(graph::grid_2d(10, 10));
  const VersionId version{CombinerKind::kSpinlockPush, false};
  std::vector<graph::vid_t> clean;
  const RunResult ref = clean_run(g, apps::Hashmin{}, version, clean);
  ASSERT_GE(ref.supersteps, 10u);

  integrity::IntegrityOptions tiers;
  tiers.checksums = true;
  tiers.checksum_every = 4;
  integrity::FlipPlan flip;
  flip.target = integrity::FlipTarget::kValues;
  flip.phase = integrity::FlipPhase::kAtRest;
  flip.index = 0;  // vertex 0: its Hashmin label converges to 0 immediately
  flip.bit = 5;

  // Covered superstep: detected and recovered.
  flip.superstep = 8;
  run_cell(g, apps::Hashmin{}, version, tiers, flip, Expect::kMustDetect,
           clean, ref.supersteps, "cadence_covered");

  // Uncovered superstep: the flip lands between baselines and escapes —
  // the honest price of the sparse cadence. (The flipped label 32 > 0
  // sticks: Hashmin only ever lowers labels, and vertex 0's neighbours
  // have long halted.)
  flip.superstep = 6;
  const TempDir dir("cadence_uncovered");
  EngineOptions options;
  options.threads = 2;
  options.integrity = tiers;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 1;
  options.checkpoint.directory = dir.str();
  ft::RetryPolicy policy;
  policy.flip_schedule = {flip};
  std::vector<graph::vid_t> escaped;
  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, version, options, policy, nullptr, &escaped);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.integrity_violations, 0u);
  EXPECT_NE(escaped, clean)
      << "an uncovered-superstep flip escaping is this knob's documented "
         "trade-off; if it is now detected, the cadence semantics changed "
         "and this test (and DESIGN.md section 11) must be updated";
}

}  // namespace
}  // namespace ipregel
