// The one checkpoint contract (ft/checkpoint_contract.hpp). A table of
// single-axis changes to a matching (snapshot, engine binding) pair, each
// accepted or rejected with a reason that names its axis; the capability
// traits; and one case each through Engine::restore_state and
// ShardEngine::validate, to show that both engines answer with the
// contract's own reason.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "ft/checkpoint_contract.hpp"
#include "graph/generators.hpp"
#include "shard/partition.hpp"
#include "shard/shard_engine.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using ft::CheckpointMode;
using ft::SnapshotBinding;
using ft::SnapshotMeta;

// --- capability traits ---------------------------------------------------

static_assert(ft::kResendCapable<apps::Hashmin>);
static_assert(ft::kResendCapable<apps::Sssp>);
static_assert(!ft::kResendCapable<apps::WeightedSssp>);
static_assert(ft::kLightweightCapable<apps::Hashmin>);
static_assert(!ft::kLightweightCapable<apps::WeightedSssp>);
static_assert(!ft::kLightweightCapable<apps::PageRankConverging>);

/// Resend-capable, but with an aggregator.
struct AggregatingResender {
  using value_type = int;
  using message_type = int;
  using aggregate_type = int;
  static aggregate_type aggregate_identity() { return 0; }
  static void aggregate(aggregate_type& acc, const aggregate_type& x) {
    acc += x;
  }
  void resend(auto& ctx) const { ctx.broadcast(ctx.value()); }
};
static_assert(HasAggregator<AggregatingResender>);
static_assert(ft::kResendCapable<AggregatingResender>);
static_assert(!ft::kLightweightCapable<AggregatingResender>,
              "an aggregator rules lightweight out even with resend");

struct StringValued {
  using value_type = std::string;
  using message_type = int;
};
static_assert(!ft::kTriviallyCheckpointable<StringValued>);
static_assert(ft::kTriviallyCheckpointable<apps::Hashmin>);

// --- the binding check, one axis at a time -------------------------------

constexpr auto kMutex = static_cast<std::uint8_t>(CombinerKind::kMutexPush);
constexpr auto kSpin = static_cast<std::uint8_t>(CombinerKind::kSpinlockPush);
constexpr auto kPull = static_cast<std::uint8_t>(CombinerKind::kPull);

/// A spinlock-push + bypass engine over slots [1, 65) of a 64-vertex
/// graph, lightweight-capable, no aggregator.
SnapshotBinding engine_binding() {
  return {.meta = {.combiner = kSpin,
                   .selection_bypass = true,
                   .has_aggregator = false,
                   .num_slots = 65,
                   .first_slot = 1,
                   .num_vertices = 64,
                   .num_edges = 224,
                   .graph_fingerprint = 0x1234,
                   .program_fingerprint = 0xABCD,
                   .value_size = 4,
                   .message_size = 4},
          .lightweight_capable = true};
}

struct Case {
  const char* name;
  CheckpointMode mode;
  /// Applied to the snapshot's meta and to the engine's binding, which
  /// both start out matching.
  void (*change)(SnapshotMeta&, SnapshotBinding&);
  /// nullptr = accepted; otherwise a fragment the reason must contain.
  const char* rejected_for;
};

constexpr CheckpointMode kHW = CheckpointMode::kHeavyweight;
constexpr CheckpointMode kLW = CheckpointMode::kLightweight;

const Case kCases[] = {
    {"matching heavyweight", kHW, [](SnapshotMeta&, SnapshotBinding&) {},
     nullptr},
    {"matching lightweight", kLW, [](SnapshotMeta&, SnapshotBinding&) {},
     nullptr},
    // graph fingerprint: no sentinel, zero included
    {"other graph", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.graph_fingerprint ^= 1; },
     "graph fingerprint"},
    {"zero graph fingerprint", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.graph_fingerprint = 0; },
     "graph fingerprint"},
    // program fingerprint, with the format-v1 zero skip
    {"other program", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.program_fingerprint ^= 1; },
     "program fingerprint"},
    {"v1 snapshot without program fingerprint", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.program_fingerprint = 0; },
     nullptr},
    // layout family
    {"mutex-push snapshot into spinlock-push", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.combiner = kMutex; },
     nullptr},
    {"pull snapshot into push, heavyweight", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.combiner = kPull; },
     "layout family"},
    {"pull snapshot into push, lightweight", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.combiner = kPull; },
     nullptr},
    {"shard slice into an engine, heavyweight", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) {
       m.combiner = ft::kShardCombinerTag;
     },
     "layout family"},
    {"shard slice into an engine, lightweight", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) {
       m.combiner = ft::kShardCombinerTag;
     },
     "layout family"},
    {"engine snapshot into a shard, lightweight", kLW,
     [](SnapshotMeta&, SnapshotBinding& b) {
       b.meta.combiner = ft::kShardCombinerTag;
     },
     "layout family"},
    {"shard slice into its shard", kHW,
     [](SnapshotMeta& m, SnapshotBinding& b) {
       m.combiner = b.meta.combiner = ft::kShardCombinerTag;
     },
     nullptr},
    {"unknown combiner byte", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.combiner = 7; },
     "layout family"},
    // bypass
    {"bypass differs, heavyweight", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.selection_bypass = false; },
     "selection-bypass"},
    {"bypass differs, lightweight", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.selection_bypass = false; },
     nullptr},
    // aggregator
    {"aggregator differs, heavyweight", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.has_aggregator = true; },
     "aggregator support"},
    // value and message size
    {"value size differs", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.value_size = 8; },
     "value or message size"},
    {"message size differs, lightweight too", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.message_size = 8; },
     "value or message size"},
    // slot range and graph shape
    {"other slot count", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.num_slots = 33; },
     "slot range"},
    {"other first slot", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.first_slot = 0; },
     "slot range"},
    {"other vertex count", kHW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.num_vertices = 63; },
     "graph shape"},
    {"other edge count", kLW,
     [](SnapshotMeta& m, SnapshotBinding&) { m.num_edges = 225; },
     "graph shape"},
    // lightweight capability
    {"lightweight without resend", kLW,
     [](SnapshotMeta&, SnapshotBinding& b) { b.lightweight_capable = false; },
     "lightweight recovery"},
    {"lightweight with an aggregator", kLW,
     [](SnapshotMeta&, SnapshotBinding& b) {
       b.lightweight_capable = false;
       b.meta.has_aggregator = true;
     },
     "lightweight recovery"},
    {"heavyweight with an aggregator", kHW,
     [](SnapshotMeta& m, SnapshotBinding& b) {
       b.lightweight_capable = false;
       m.has_aggregator = b.meta.has_aggregator = true;
     },
     nullptr},
};

TEST(CheckpointContract, EachAxisAcceptsOrRejectsWithItsReason) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    SnapshotBinding b = engine_binding();
    SnapshotMeta m = ft::bound_meta(b, c.mode, 4);
    c.change(m, b);
    const char* why = ft::binding_mismatch(m, b);
    if (c.rejected_for == nullptr) {
      EXPECT_EQ(why, nullptr) << why;
    } else {
      ASSERT_NE(why, nullptr);
      EXPECT_NE(std::string(why).find(c.rejected_for), std::string::npos)
          << why;
    }
  }
}

TEST(CheckpointContract, BoundMetaStampsTheBinding) {
  const SnapshotBinding b = engine_binding();
  const SnapshotMeta m = ft::bound_meta(b, kLW, 9);
  EXPECT_EQ(m.mode, kLW);
  EXPECT_EQ(m.superstep, 9u);
  EXPECT_EQ(m.combiner, b.meta.combiner);
  EXPECT_EQ(m.graph_fingerprint, b.meta.graph_fingerprint);
  EXPECT_EQ(m.program_fingerprint, b.meta.program_fingerprint);
  EXPECT_EQ(m.first_slot, b.meta.first_slot);
  EXPECT_EQ(m.aggregate_size, 0u);
}

// --- both engines route to the check -------------------------------------

/// The binding a snapshot was stamped with, read back from its meta.
SnapshotBinding binding_of(const SnapshotMeta& m) {
  return {.meta = m, .lightweight_capable = true};
}

TEST(CheckpointContract, EngineRestoreThrowsTheContractsReason) {
  const auto g = testing::make_graph(graph::grid_2d(6, 6));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> engine(
      g, apps::Hashmin{}, EngineOptions{.threads = 1});
  (void)engine.run();
  ft::EngineSnapshot snap = engine.capture_state(kHW);
  const SnapshotBinding own = binding_of(snap.meta);
  snap.meta.graph_fingerprint ^= 1;
  const char* why = ft::binding_mismatch(snap.meta, own);
  ASSERT_NE(why, nullptr);
  try {
    engine.restore_state(snap);
    FAIL() << "a snapshot of another graph must be rejected";
  } catch (const ft::SnapshotMismatch& e) {
    EXPECT_EQ(std::string(e.what()), std::string("snapshot rejected: ") + why);
  }
}

TEST(CheckpointContract, ShardValidateReturnsTheContractsReason) {
  const auto g = testing::make_graph(graph::grid_2d(6, 6));
  const shard::ShardPartition part(g, 2);
  shard::ShardEngine<apps::Hashmin> e0(g, apps::Hashmin{}, part, 0);
  e0.initialize();
  const std::uint64_t fp = shard::shard_fingerprint(0xAB, 2, 0);
  ft::EngineSnapshot snap = e0.capture(kHW, 3, 0x99, fp);
  ASSERT_EQ(e0.validate(snap, 0x99, fp), nullptr);
  const SnapshotBinding own = binding_of(snap.meta);
  snap.meta.first_slot += 1;
  const char* why = ft::binding_mismatch(snap.meta, own);
  ASSERT_NE(why, nullptr);
  const char* got = e0.validate(snap, 0x99, fp);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(std::string(got), std::string(why));
}

}  // namespace
}  // namespace ipregel
