// Unit tests for the integrity subsystem's building blocks: the seeded
// FlipPlan injector and shadow sampler are deterministic (a failure log's
// seed reproduces the exact corruption), hash_bytes sees single-bit
// changes, and each detector tier catches a targeted flip with a typed,
// localised kIntegrityViolation — checksums name the section and slot
// range, the invariant audit names the law, the shadow tier names the
// slot. Plus verified recovery at the snapshot layer: a snapshot whose
// CRCs are fine but whose *content* predates-corruption is quarantined by
// the value audit instead of being resumed from.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/runner.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "ft/supervisor.hpp"
#include "graph/generators.hpp"
#include "integrity/checksum.hpp"
#include "integrity/fault.hpp"
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
            (std::string("ipregel_integ_") + info->name() + "_" + label))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] const std::string& str() const noexcept { return dir_; }

 private:
  std::string dir_;
};

// --- injector determinism ------------------------------------------------

TEST(FlipPlan, FromSeedIsDeterministic) {
  const integrity::FlipPlan a = integrity::FlipPlan::from_seed(77, 1, 9);
  const integrity::FlipPlan b = integrity::FlipPlan::from_seed(77, 1, 9);
  EXPECT_EQ(a.superstep, b.superstep);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.bit, b.bit);
  EXPECT_TRUE(a.armed());
  EXPECT_GE(a.superstep, 1u);
  EXPECT_LE(a.superstep, 9u);
  EXPECT_EQ(a.phase, integrity::FlipPhase::kAtRest);
}

TEST(FlipPlan, FromSeedRespectsFrontierGate) {
  // Without allow_frontier no seed may produce a frontier flip.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto plan = integrity::FlipPlan::from_seed(seed, 0, 5, false);
    EXPECT_NE(plan.target, integrity::FlipTarget::kFrontier)
        << "seed " << seed;
  }
}

TEST(FlipPlan, DefaultIsDisarmed) {
  const integrity::FlipPlan plan;
  EXPECT_FALSE(plan.armed());
}

TEST(ShadowSample, DeterministicUniqueInRange) {
  const auto a = integrity::shadow_sample(9, 3, 10, 100, 16);
  const auto b = integrity::shadow_sample(9, 3, 10, 100, 16);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 10u);
    EXPECT_LT(a[i], 110u);
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i], a[j]) << "duplicate slot in sample";
    }
  }
  // Different superstep, different sample (overwhelmingly likely).
  EXPECT_NE(a, integrity::shadow_sample(9, 4, 10, 100, 16));
}

TEST(ShadowSample, ClampsToPopulation) {
  const auto slots = integrity::shadow_sample(1, 0, 0, 4, 16);
  EXPECT_EQ(slots.size(), 4u);
  EXPECT_TRUE(integrity::shadow_sample(1, 0, 0, 0, 16).empty());
  EXPECT_TRUE(integrity::shadow_sample(1, 0, 0, 100, 0).empty());
}

TEST(HashBytes, SeesSingleBitChanges) {
  std::vector<std::uint8_t> buf(4096, 0xA5);
  const std::uint64_t h0 = integrity::hash_bytes(buf.data(), buf.size());
  EXPECT_EQ(h0, integrity::hash_bytes(buf.data(), buf.size()));
  for (const std::size_t byte : {std::size_t{0}, buf.size() / 2,
                                 buf.size() - 1}) {
    buf[byte] ^= 0x01;
    EXPECT_NE(h0, integrity::hash_bytes(buf.data(), buf.size()))
        << "flip at byte " << byte << " went unseen";
    buf[byte] ^= 0x01;
  }
  // Chaining: a different seed yields a different digest stream.
  EXPECT_NE(integrity::hash_bytes(buf.data(), buf.size(), 1),
            integrity::hash_bytes(buf.data(), buf.size(), 2));
}

// --- targeted single-tier detections ------------------------------------

/// Runs Hashmin with only the checksum tier armed and `flip` injected,
/// returning the typed outcome.
RunOutcome run_with_checksums(const CsrGraph& g,
                              const integrity::FlipPlan& flip,
                              VersionId version,
                              bool fixed_direction = false) {
  EngineOptions options;
  options.threads = 2;
  options.integrity.checksums = true;
  options.fixed_direction = fixed_direction;
  options.flip = flip;
  return run_version_checked(g, apps::Hashmin{}, version, options);
}

TEST(ChecksumTier, LocalisesValueFlipToSectionAndRange) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  integrity::FlipPlan flip;
  flip.superstep = 2;
  flip.target = integrity::FlipTarget::kValues;
  flip.phase = integrity::FlipPhase::kAtRest;
  flip.index = 5;
  flip.bit = 3;
  const RunOutcome out = run_with_checksums(
      g, flip, VersionId{CombinerKind::kSpinlockPush, false});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kIntegrityViolation);
  EXPECT_EQ(out.error->superstep(), 2u);
  const std::string what = out.error->what();
  EXPECT_NE(what.find("section 'values'"), std::string::npos) << what;
  EXPECT_NE(what.find("slots ["), std::string::npos) << what;
}

TEST(ChecksumTier, DetectsHaltedAndFlagFlips) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  for (const auto target : {integrity::FlipTarget::kHalted,
                            integrity::FlipTarget::kMessageFlags}) {
    integrity::FlipPlan flip;
    flip.superstep = 2;
    flip.target = target;
    flip.phase = integrity::FlipPhase::kAtRest;
    flip.index = 11;
    const RunOutcome out = run_with_checksums(
        g, flip, VersionId{CombinerKind::kMutexPush, false});
    ASSERT_FALSE(out.ok()) << to_string(target);
    EXPECT_EQ(out.error->kind(), RunErrorKind::kIntegrityViolation)
        << to_string(target);
  }
}

TEST(ChecksumTier, FrontierFlipDetectedUnderBypass) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  integrity::FlipPlan flip;
  flip.superstep = 2;
  flip.target = integrity::FlipTarget::kFrontier;
  flip.phase = integrity::FlipPhase::kAtRest;
  flip.index = 0;
  flip.bit = 1;
  // Pinned to push: a direction-optimising run reaches superstep 2 after a
  // dense pull superstep, whose recipients are scanned, not listed, so
  // there is no frontier entry to flip.
  const RunOutcome out = run_with_checksums(
      g, flip, VersionId{CombinerKind::kSpinlockPush, true},
      /*fixed_direction=*/true);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kIntegrityViolation);
  const std::string what = out.error->what();
  EXPECT_NE(what.find("frontier"), std::string::npos) << what;
}

TEST(ChecksumTier, DeadMailboxSlotFlipIsMaskedByConstruction) {
  // Flipping message *bytes* in a slot whose has-message flag is clear
  // must NOT trip the digest (the engine never reads those bytes) — the
  // run completes with the exact clean fixpoint. The directed path gives
  // a slot that is dead by construction: vertex 0 has no in-edges, so its
  // inbox flag is never set in any generation.
  const CsrGraph g = make_graph(graph::path_graph(64));
  std::vector<graph::vid_t> clean;
  (void)run_version(g, apps::Hashmin{},
                    VersionId{CombinerKind::kSpinlockPush, true},
                    EngineOptions{.threads = 2}, nullptr, &clean);

  integrity::FlipPlan flip;
  flip.superstep = 3;
  flip.target = integrity::FlipTarget::kMessages;
  flip.phase = integrity::FlipPhase::kAtRest;
  flip.index = 0;  // vertex 0: no in-edges, inbox permanently dead
  flip.bit = 7;
  EngineOptions options;
  options.threads = 2;
  options.integrity.checksums = true;
  options.flip = flip;
  std::vector<graph::vid_t> flipped;
  const RunOutcome out = run_version_checked(
      g, apps::Hashmin{}, VersionId{CombinerKind::kSpinlockPush, true},
      options, nullptr, &flipped);
  ASSERT_TRUE(out.ok())
      << "a dead-slot message flip must be masked, got: "
      << out.error->what();
  EXPECT_EQ(flipped, clean);
}

TEST(InvariantTier, PageRankMassViolationDetected) {
  const CsrGraph g = make_graph(graph::rmat(7, 6, {.seed = 5}));
  integrity::FlipPlan flip;
  flip.superstep = 3;
  flip.target = integrity::FlipTarget::kValues;
  flip.phase = integrity::FlipPhase::kPostCompute;
  flip.op = integrity::FlipOp::kSet;
  flip.index = 9;
  flip.bit = 62;  // exponent high bit: rank explodes, mass audit trips
  EngineOptions options;
  options.threads = 1;
  options.integrity.invariants = true;
  options.flip = flip;
  const RunOutcome out = run_version_checked(
      g, apps::PageRank{.rounds = 10},
      VersionId{CombinerKind::kSpinlockPush, false}, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kIntegrityViolation);
  EXPECT_EQ(out.error->superstep(), 3u);
  const std::string what = out.error->what();
  EXPECT_NE(what.find("invariant audit"), std::string::npos) << what;
}

TEST(InvariantTier, SsspMonotonicityViolationDetected) {
  const CsrGraph g = make_graph(graph::grid_2d(10, 10));
  integrity::FlipPlan flip;
  flip.superstep = 4;
  flip.target = integrity::FlipTarget::kValues;
  flip.phase = integrity::FlipPhase::kPostCompute;
  flip.op = integrity::FlipOp::kSet;
  flip.index = 2;
  flip.bit = 30;  // finite distance jumps past |V|: per-vertex audit trips
  EngineOptions options;
  options.threads = 2;
  options.integrity.invariants = true;
  options.flip = flip;
  const RunOutcome out = run_version_checked(
      g, apps::Sssp{}, VersionId{CombinerKind::kSpinlockPush, true},
      options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kIntegrityViolation);
  EXPECT_EQ(out.error->superstep(), 4u);
}

TEST(InvariantTier, CleanRunRaisesNoViolation) {
  const CsrGraph g = make_graph(graph::rmat(7, 6, {.seed = 5}));
  EngineOptions options;
  options.threads = 2;
  options.integrity.invariants = true;
  for (const VersionId v : applicable_versions<apps::PageRank>()) {
    const RunOutcome out = run_version_checked(
        g, apps::PageRank{.rounds = 10}, v, options);
    EXPECT_TRUE(out.ok()) << version_name(v) << ": false positive: "
                          << out.error->what();
  }
}

TEST(ShadowTier, PostComputeValueFlipOnSampledSlotDetected) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  const std::uint64_t shadow_seed = 1234;
  const std::size_t superstep = 2;
  const auto sampled = integrity::shadow_sample(
      shadow_seed, superstep, g.first_slot(),
      g.num_slots() - g.first_slot(), 8);
  ASSERT_FALSE(sampled.empty());

  integrity::FlipPlan flip;
  flip.superstep = superstep;
  flip.target = integrity::FlipTarget::kValues;
  flip.phase = integrity::FlipPhase::kPostCompute;
  flip.index = sampled.front() - g.first_slot();
  flip.bit = 1;
  EngineOptions options;
  options.threads = 2;
  options.integrity.shadow = true;
  options.integrity.shadow_samples = 8;
  options.integrity.shadow_seed = shadow_seed;
  options.flip = flip;
  const RunOutcome out = run_version_checked(
      g, apps::Hashmin{}, VersionId{CombinerKind::kMutexPush, false},
      options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kIntegrityViolation);
  EXPECT_EQ(out.error->superstep(), superstep);
  const std::string what = out.error->what();
  EXPECT_NE(what.find("shadow recompute"), std::string::npos) << what;
}

TEST(ShadowTier, CleanRunRaisesNoViolation) {
  const CsrGraph g = make_graph(graph::grid_2d(8, 8));
  EngineOptions options;
  options.threads = 2;
  options.integrity.shadow = true;
  options.integrity.shadow_samples = 16;
  for (const VersionId v : applicable_versions<apps::Hashmin>()) {
    const RunOutcome out =
        run_version_checked(g, apps::Hashmin{}, v, options);
    EXPECT_TRUE(out.ok()) << version_name(v) << ": false positive: "
                          << out.error->what();
  }
}

// --- verified recovery: content-corrupt snapshots ------------------------

TEST(VerifiedRecovery, CorruptButCrcValidSnapshotIsQuarantined) {
  // Hashmin invariant: label <= id. Take a real snapshot, bump one label
  // ABOVE its vertex id, and re-write the file (fresh CRCs — the file is
  // structurally immaculate; the corruption predates the checkpoint).
  // Supervised recovery with the invariant tier on must refuse it, fall
  // back to the older good snapshot, and still finish bit-identical.
  const CsrGraph g = make_graph(graph::grid_2d(10, 10));
  const VersionId version{CombinerKind::kSpinlockPush, false};
  const TempDir dir("crc_valid");

  std::vector<graph::vid_t> clean;
  EngineOptions base;
  base.threads = 2;
  (void)run_version(g, apps::Hashmin{}, version, base, nullptr, &clean);

  EngineOptions ckpt = base;
  ckpt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  ckpt.checkpoint.every = 1;
  ckpt.checkpoint.mode = ft::CheckpointMode::kHeavyweight;
  ckpt.checkpoint.directory = dir.str();
  ckpt.checkpoint.keep = 0;  // retain every snapshot for this test
  (void)run_version(g, apps::Hashmin{}, version, ckpt);

  const auto snaps = ft::SnapshotDirectory(dir.str()).list();
  ASSERT_GE(snaps.size(), 2u) << "need an older snapshot to fall back to";
  const std::string& newest = snaps.back().path;
  ft::EngineSnapshot snap = ft::read_snapshot(newest);
  ASSERT_EQ(snap.meta.value_size, sizeof(graph::vid_t));
  // Slot 0 holds label 0 (its own id is the component minimum): raise it.
  snap.values[1] = 0x7F;  // label becomes huge — audit_value: label > id
  ft::write_snapshot(newest, snap);
  // The doctored file still parses: structural validation alone is happy.
  EXPECT_NO_THROW((void)ft::read_snapshot(newest));

  EngineOptions resume = ckpt;
  resume.integrity.invariants = true;
  ft::RetryPolicy policy;
  policy.max_attempts = 2;
  std::vector<graph::vid_t> recovered;
  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, version, resume, policy, nullptr, &recovered);
  ASSERT_TRUE(out.ok()) << out.error->what();
  EXPECT_GE(out.snapshots_quarantined, 1u)
      << "the content-corrupt snapshot must be quarantined, not resumed";
  EXPECT_EQ(out.resumed_from_snapshot, 1u)
      << "recovery should fall back to the older good snapshot";
  EXPECT_EQ(recovered, clean);

  // The quarantined file is renamed, not deleted: post-mortem evidence.
  bool found_quarantined = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.str())) {
    if (entry.path().string().ends_with(".quarantined")) {
      found_quarantined = true;
    }
  }
  EXPECT_TRUE(found_quarantined);
}

TEST(VerifiedRecovery, WithoutValueAuditTierSnapshotIsAccepted) {
  // Same doctored snapshot, but the invariant tier off: recovery has no
  // semantic validator, resumes from the corrupt-but-parseable newest
  // snapshot, and the corruption propagates into the result. This is the
  // baseline the verified path exists to beat — asserted here so the test
  // suite documents the difference instead of implying CRCs are enough.
  const CsrGraph g = make_graph(graph::grid_2d(10, 10));
  const VersionId version{CombinerKind::kSpinlockPush, false};
  const TempDir dir("unverified");

  std::vector<graph::vid_t> clean;
  EngineOptions ckpt;
  ckpt.threads = 2;
  ckpt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  ckpt.checkpoint.every = 1;
  ckpt.checkpoint.mode = ft::CheckpointMode::kHeavyweight;
  ckpt.checkpoint.directory = dir.str();
  ckpt.checkpoint.keep = 0;
  (void)run_version(g, apps::Hashmin{}, version, ckpt, nullptr, &clean);

  const auto snaps = ft::SnapshotDirectory(dir.str()).list();
  ASSERT_GE(snaps.size(), 2u);
  const std::string& newest = snaps.back().path;
  ft::EngineSnapshot snap = ft::read_snapshot(newest);
  snap.values[1] = 0x7F;
  ft::write_snapshot(newest, snap);

  ft::RetryPolicy policy;
  policy.max_attempts = 1;
  std::vector<graph::vid_t> recovered;
  const ft::SupervisedOutcome out = ft::supervise(
      g, apps::Hashmin{}, version, ckpt, policy, nullptr, &recovered);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.snapshots_quarantined, 0u);
  EXPECT_EQ(out.resumed_from_snapshot, 1u);
  EXPECT_NE(recovered, clean)
      << "without the value audit the corruption should have propagated "
         "(if this starts passing, the doctored slot stopped mattering "
         "and the test needs a different corruption site)";
}

}  // namespace
}  // namespace ipregel
