// In-process unit tests of the Engine over shard slices: a hand-rolled
// BSP loop drives N slices against each other with plain byte vectors (no
// processes, no rings) and must reproduce the single-process engine
// exactly. Also covers the per-shard snapshot capture/validate/restore
// cycle and the lightweight rebuild from regenerated outboxes.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_dangling.hpp"
#include "apps/sssp.hpp"
#include "core/aggregator_traits.hpp"
#include "shard/slice.hpp"
#include "test_util.hpp"

namespace ipregel::shard {
namespace {

/// The synchronous reference harness: every slice steps, then all frames
/// cross — one barrier per superstep, applied in ascending source order
/// exactly as the worker's cursor machinery does.
template <typename Program>
struct InProcessRun {
  using Value = typename Program::value_type;

  InProcessRun(const graph::CsrGraph& g, Program program, std::size_t shards,
               std::uint64_t graph_fp = 0)
      : part(g, shards) {
    for (std::size_t s = 0; s < part.shards(); ++s) {
      slices.emplace_back(g, program, part, s, graph_fp);
      slices.back().engine.reset();
    }
  }

  /// Runs one superstep; returns true while the computation is live.
  bool superstep_once() {
    const std::size_t n = slices.size();
    std::uint64_t sent = 0;
    std::uint64_t active = 0;
    for (auto& s : slices) {
      const SuperstepStats counts = s.engine.step();
      sent += counts.messages_sent;
      active += counts.remaining_active;
    }
    // frames[src][dst], applied per destination in ascending src order.
    std::vector<std::vector<std::vector<std::uint8_t>>> frames(n);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        frames[src].push_back(slices[src].outboxes.take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      for (std::size_t src = 0; src < n; ++src) {
        apply_frame(frames[src][dst], slices[dst].engine);
      }
    }
    if constexpr (HasSerializableAggregator<Program>) {
      // Each slice's partial crosses as bytes, as in a barrier message.
      auto agg = Program::aggregate_identity();
      for (auto& s : slices) {
        const auto bytes = aggregate_to_bytes<Program>(s.engine.aggregated());
        Program::aggregate(agg, aggregate_from_bytes<Program>(bytes));
      }
      for (auto& s : slices) {
        s.engine.set_aggregated(agg);
      }
    }
    ++superstep;
    return sent != 0 || active != 0;
  }

  std::vector<Value> run_to_completion(std::size_t cap = 10'000) {
    while (superstep_once() && superstep < cap) {
    }
    return values();
  }

  [[nodiscard]] std::vector<Value> values() const {
    std::vector<Value> out;
    for (const auto& s : slices) {
      const auto v = s.engine.values();
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  ShardPartition part;
  std::deque<Slice<Program>> slices;  // stable addresses: slices hold refs
  std::uint64_t superstep = 0;
};

/// Engine reference restricted to the populated slots, in slot order —
/// comparable with InProcessRun::values() concatenation.
template <typename Program>
std::vector<typename Program::value_type> engine_populated(
    const graph::CsrGraph& g, Program program) {
  std::vector<typename Program::value_type> values;
  EngineOptions opt;
  opt.threads = 1;
  (void)run_version(g, program, VersionId{CombinerKind::kMutexPush, false},
                    opt, nullptr, &values);
  return {values.begin() + static_cast<std::ptrdiff_t>(g.first_slot()),
          values.begin() + static_cast<std::ptrdiff_t>(g.num_slots())};
}

TEST(ShardSlice, HashminMatchesTheEngineAcrossShardCounts) {
  const auto g = testing::make_graph(
      graph::rmat(7, 4, graph::RmatOptions{.seed = 8}));
  const auto want = engine_populated(g, apps::Hashmin{});
  for (const std::size_t shards : {1u, 2u, 4u}) {
    InProcessRun<apps::Hashmin> run(g, apps::Hashmin{}, shards);
    EXPECT_EQ(run.run_to_completion(), want) << shards << " shards";
  }
}

TEST(ShardSlice, PageRankSingleShardIsBitIdentical) {
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 2}));
  apps::PageRank pr;
  pr.rounds = 8;
  const auto want = engine_populated(g, pr);
  InProcessRun<apps::PageRank> run(g, pr, 1);
  const auto got = run.run_to_completion();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "slot offset " << i;  // bitwise
  }
}

TEST(ShardSlice, DanglingAggregatorFoldsAcrossEngines) {
  const auto g = testing::make_graph(
      graph::rmat(6, 3, graph::RmatOptions{.seed = 17}));
  apps::PageRankDangling pr;
  pr.rounds = 8;
  const auto want = engine_populated(g, pr);
  InProcessRun<apps::PageRankDangling> run(g, pr, 3);
  const auto got = run.run_to_completion();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << "slot offset " << i;
  }
}

TEST(ShardSlice, HeavyweightCaptureRestoreRoundTrips) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  const std::uint64_t graph_fp = 0x1111;
  InProcessRun<apps::Sssp> run(g, apps::Sssp{}, 2, graph_fp);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(run.superstep_once());
  }
  // Capture both shards "about to compute superstep 4", clone into fresh
  // engines, and continue both runs to completion.
  InProcessRun<apps::Sssp> clone(g, apps::Sssp{}, 2, graph_fp);
  for (std::size_t s = 0; s < 2; ++s) {
    const auto snap =
        run.slices[s].engine.capture_state(ft::CheckpointMode::kHeavyweight);
    EXPECT_EQ(snap.meta.combiner, kShardCombinerTag);
    EXPECT_EQ(snap.meta.first_slot, run.part.slots(s).begin);
    EXPECT_EQ(snap.meta.superstep, run.superstep);
    EXPECT_EQ(snap.meta.graph_fingerprint, graph_fp);
    EXPECT_EQ(snap.meta.program_fingerprint,
              shard_fingerprint(program_fingerprint<apps::Sssp>(), 2, s));
    ASSERT_EQ(clone.slices[s].engine.validate(snap), nullptr);
    clone.slices[s].engine.restore_state(snap);
  }
  clone.superstep = run.superstep;
  EXPECT_EQ(run.run_to_completion(), clone.run_to_completion());
}

TEST(ShardSlice, LightweightRestoreRebuildsTheInboxViaResend) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  InProcessRun<apps::Sssp> run(g, apps::Sssp{}, 2);
  std::vector<std::vector<std::vector<std::uint8_t>>> last_frames;
  // Drive manually so the frames of the last completed superstep are
  // retained — the worker's RetainedGen, in miniature.
  for (int step = 0; step < 5; ++step) {
    for (auto& s : run.slices) {
      (void)s.engine.step();
    }
    last_frames.assign(2, {});
    for (std::size_t src = 0; src < 2; ++src) {
      for (std::size_t dst = 0; dst < 2; ++dst) {
        last_frames[src].push_back(run.slices[src].outboxes.take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < 2; ++dst) {
      for (std::size_t src = 0; src < 2; ++src) {
        apply_frame(last_frames[src][dst], run.slices[dst].engine);
      }
    }
    ++run.superstep;
  }
  // Shard 1 dies and comes back from a lightweight snapshot taken at
  // exactly this superstep: values + halted only.
  const std::uint64_t resume = run.superstep;
  const auto snap =
      run.slices[1].engine.capture_state(ft::CheckpointMode::kLightweight);
  EXPECT_EQ(snap.meta.superstep, resume);
  EXPECT_TRUE(snap.inbox.empty());
  Slice<apps::Sssp> revived(g, apps::Sssp{}, run.part, 1, 0);
  ASSERT_EQ(revived.engine.validate(snap), nullptr);
  // The restore regenerates superstep resume-1's messages into the
  // outboxes. Rebuild the current inbox: survivor's republished frame for
  // source 0, own regenerated self slice at source position 1; the
  // regenerated remote slice is dropped.
  revived.engine.restore_state(snap);
  const auto self_frame = revived.outboxes.take_outbox(1);
  revived.outboxes.clear();
  apply_frame(last_frames[0][1], revived.engine);
  apply_frame(self_frame, revived.engine);
  // The survivor (with its true state) and the revived slice must now
  // run identically to an undisturbed run. A slice holds references, so
  // drive the pair through pointers rather than moving them into a fresh
  // harness.
  std::vector<Slice<apps::Sssp>*> pair = {&run.slices[0], &revived};
  for (;;) {
    std::uint64_t sent = 0;
    std::uint64_t active = 0;
    for (auto* s : pair) {
      const SuperstepStats counts = s->engine.step();
      sent += counts.messages_sent;
      active += counts.remaining_active;
    }
    std::vector<std::vector<std::vector<std::uint8_t>>> frames(2);
    for (std::size_t src = 0; src < 2; ++src) {
      for (std::size_t dst = 0; dst < 2; ++dst) {
        frames[src].push_back(pair[src]->outboxes.take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < 2; ++dst) {
      for (std::size_t src = 0; src < 2; ++src) {
        apply_frame(frames[src][dst], pair[dst]->engine);
      }
    }
    if (sent == 0 && active == 0) {
      break;
    }
  }
  InProcessRun<apps::Sssp> undisturbed(g, apps::Sssp{}, 2);
  const auto want = undisturbed.run_to_completion();
  std::vector<std::uint32_t> got;
  for (auto* s : pair) {
    const auto v = s->engine.values();
    got.insert(got.end(), v.begin(), v.end());
  }
  EXPECT_EQ(got, want);
}

TEST(ShardSlice, ValidateRejectsForeignSlices) {
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 5}));
  const ShardPartition two(g, 2);
  Slice<apps::Hashmin> s0(g, apps::Hashmin{}, two, 0, 0x99);
  Slice<apps::Hashmin> s1(g, apps::Hashmin{}, two, 1, 0x99);
  s0.engine.reset();
  s1.engine.reset();

  // A slice from the right shard under the right binding: accepted.
  const auto good = s0.engine.capture_state(ft::CheckpointMode::kHeavyweight);
  EXPECT_EQ(s0.engine.validate(good), nullptr);

  // Wrong graph.
  Slice<apps::Hashmin> other_graph(g, apps::Hashmin{}, two, 0, 0x77);
  EXPECT_NE(other_graph.engine.validate(good), nullptr);
  // Wrong shard topology: same program, 4 shards instead of 2. Both the
  // fingerprint and (here) the slot range disagree.
  const ShardPartition four(g, 4);
  Slice<apps::Hashmin> four_0(g, apps::Hashmin{}, four, 0, 0x99);
  EXPECT_NE(four_0.engine.validate(good), nullptr);
  // Another shard's slice under this shard's validator: range mismatch.
  const auto foreign =
      s1.engine.capture_state(ft::CheckpointMode::kHeavyweight);
  EXPECT_NE(s0.engine.validate(foreign), nullptr);
  // A whole-run engine snapshot (no shard combiner tag) must be rejected
  // even when everything else is zeroed out.
  auto whole = good;
  whole.meta.combiner = 0;
  whole.meta.program_fingerprint = 0;
  EXPECT_NE(s0.engine.validate(whole), nullptr);
}

}  // namespace
}  // namespace ipregel::shard
