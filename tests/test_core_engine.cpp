// Behavioural tests of the Engine itself: superstep accounting, halting
// semantics, option handling, and the guard rails around invalid
// configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using graph::vid_t;
using ipregel::testing::make_graph;

/// Sends one message along a directed path per superstep; used to count
/// supersteps and messages precisely.
struct PathRelay {
  using value_type = std::uint32_t;
  using message_type = std::uint32_t;
  static constexpr bool broadcast_only = true;
  static constexpr bool always_halts = true;

  [[nodiscard]] value_type initial_value(vid_t) const noexcept { return 0; }

  void compute(auto& ctx) const {
    if (ctx.is_first_superstep()) {
      if (ctx.id() == 0) {
        ctx.value() = 1;
        ctx.broadcast(1);
      }
    } else {
      message_type m = 0;
      if (ctx.get_next_message(m) && ctx.value() == 0) {
        ctx.value() = m + 1;
        ctx.broadcast(ctx.value());
      }
    }
    ctx.vote_to_halt();
  }

  static void combine(message_type& old, const message_type& incoming) {
    old = std::min(old, incoming);
  }
};

/// Lies about always_halts: stays active forever. The bypass engine must
/// refuse to run it rather than silently compute garbage.
struct LiesAboutHalting {
  using value_type = std::uint32_t;
  using message_type = std::uint32_t;
  static constexpr bool broadcast_only = true;
  static constexpr bool always_halts = true;  // the lie

  [[nodiscard]] value_type initial_value(vid_t) const noexcept { return 0; }
  void compute(auto&) const { /* never votes to halt */ }
  static void combine(message_type&, const message_type&) {}
};

/// Exercises targeted sends (send_message) and vote/reactivate semantics:
/// vertex 0 pings vertex N-1 directly, which pongs back once.
struct PingPong {
  using value_type = std::uint32_t;
  using message_type = std::uint32_t;
  static constexpr bool broadcast_only = false;
  static constexpr bool always_halts = false;

  vid_t last = 0;

  [[nodiscard]] value_type initial_value(vid_t) const noexcept { return 0; }

  void compute(auto& ctx) const {
    message_type m = 0;
    const bool got = ctx.get_next_message(m);
    if (ctx.is_first_superstep() && ctx.id() == 0) {
      ctx.send_message(last, 1);
    } else if (got && ctx.id() == last) {
      ctx.value() = m;
      ctx.send_message(0, m + 1);
    } else if (got && ctx.id() == 0) {
      ctx.value() = m;
    }
    ctx.vote_to_halt();
  }

  static void combine(message_type& old, const message_type& incoming) {
    old = std::max(old, incoming);
  }
};

TEST(Engine, SuperstepAndMessageAccountingOnAPath) {
  // Path 0 -> 1 -> ... -> 9: the relay needs exactly 10 supersteps (the
  // last one consumes the final message and sends nothing) and 9 messages.
  const CsrGraph g = make_graph(graph::path_graph(10));
  Engine<PathRelay, CombinerKind::kSpinlockPush, true> engine(g);
  const RunResult r = engine.run();
  EXPECT_EQ(r.supersteps, 10u);
  EXPECT_EQ(r.total_messages, 9u);
  EXPECT_FALSE(r.reached_superstep_cap);
  for (vid_t id = 0; id < 10; ++id) {
    EXPECT_EQ(engine.value_of(id), id + 1);
  }
}

TEST(Engine, ExecutedVerticesCountsSelectionPrecision) {
  const CsrGraph g = make_graph(graph::path_graph(100));
  // Scan-all runs all 100 vertices in superstep 0, then exactly one per
  // superstep receives a message... but scan-all also re-runs nothing else
  // since everyone halted. Bypass must execute the same vertices.
  Engine<PathRelay, CombinerKind::kSpinlockPush, false> scan(g);
  Engine<PathRelay, CombinerKind::kSpinlockPush, true> bypass(g);
  const RunResult rs = scan.run();
  const RunResult rb = bypass.run();
  EXPECT_EQ(rs.total_executed_vertices, rb.total_executed_vertices)
      << "bypass must not change which vertices execute";
  EXPECT_EQ(rs.total_executed_vertices, 100u + 99u);
}

TEST(Engine, PerSuperstepStatsOnRequest) {
  const CsrGraph g = make_graph(graph::path_graph(5));
  Engine<PathRelay, CombinerKind::kSpinlockPush, true> engine(
      g, {}, EngineOptions{.collect_superstep_stats = true});
  const RunResult r = engine.run();
  ASSERT_EQ(r.per_superstep.size(), r.supersteps);
  EXPECT_EQ(r.per_superstep[0].executed_vertices, 5u);
  EXPECT_EQ(r.per_superstep[0].messages_sent, 1u);
  for (std::size_t s = 1; s < r.per_superstep.size(); ++s) {
    EXPECT_EQ(r.per_superstep[s].executed_vertices, 1u) << "superstep " << s;
  }
}

TEST(Engine, StatsAreEmptyUnlessRequested) {
  const CsrGraph g = make_graph(graph::path_graph(5));
  Engine<PathRelay, CombinerKind::kSpinlockPush, true> engine(g);
  EXPECT_TRUE(engine.run().per_superstep.empty());
}

TEST(Engine, SuperstepCapStopsDivergentRuns) {
  const CsrGraph g = make_graph(graph::cycle_graph(4));
  // On a cycle the relay's message circulates; cap it early.
  Engine<apps::PageRank, CombinerKind::kSpinlockPush, false> engine(
      g, apps::PageRank{.rounds = 1'000'000},
      EngineOptions{.max_supersteps = 7});
  const RunResult r = engine.run();
  EXPECT_EQ(r.supersteps, 7u);
  EXPECT_TRUE(r.reached_superstep_cap);
}

TEST(Engine, BypassRejectsProgramsThatDoNotHalt) {
  const CsrGraph g = make_graph(graph::path_graph(4));
  Engine<LiesAboutHalting, CombinerKind::kSpinlockPush, true> engine(g);
  EXPECT_THROW((void)engine.run(), std::logic_error)
      << "a bypass engine must detect non-halting vertices, not silently "
         "drop them";
}

TEST(Engine, ScanAllToleratesNonHaltingPrograms) {
  const CsrGraph g = make_graph(graph::path_graph(4));
  Engine<LiesAboutHalting, CombinerKind::kSpinlockPush, false> engine(
      g, {}, EngineOptions{.max_supersteps = 5});
  const RunResult r = engine.run();
  EXPECT_TRUE(r.reached_superstep_cap);
  EXPECT_EQ(r.supersteps, 5u);
}

TEST(Engine, PullCombinerDemandsInEdges) {
  const CsrGraph no_in = graph::CsrGraph::build(graph::path_graph(4));
  EXPECT_THROW(
      (Engine<apps::Hashmin, CombinerKind::kPull, false>(no_in)),
      std::invalid_argument);
}

TEST(Engine, TargetedSendsReachAnyVertex) {
  // PingPong messages skip over the graph structure entirely.
  const CsrGraph g = make_graph(graph::path_graph(50));
  const PingPong program{.last = 49};
  Engine<PingPong, CombinerKind::kSpinlockPush, false> engine(g, program);
  const RunResult r = engine.run();
  EXPECT_EQ(engine.value_of(49), 1u);
  EXPECT_EQ(engine.value_of(0), 2u);
  EXPECT_EQ(r.total_messages, 2u);
  EXPECT_EQ(r.supersteps, 3u);
}

TEST(Engine, EmptyGraphTerminatesImmediately) {
  const CsrGraph g = graph::CsrGraph::build(EdgeList{});
  Engine<PathRelay, CombinerKind::kSpinlockPush, false> engine(g);
  const RunResult r = engine.run();
  EXPECT_EQ(r.supersteps, 0u);
  EXPECT_EQ(r.total_messages, 0u);
}

TEST(Engine, DesolateGraphSkipsWastedSlots) {
  EdgeList e = graph::path_graph(6);
  graph::shift_ids(e, 4);
  const CsrGraph g = graph::CsrGraph::build(
      e, {.addressing = graph::AddressingMode::kDesolate,
          .build_in_edges = true});
  Engine<apps::Sssp, CombinerKind::kSpinlockPush, true> engine(
      g, apps::Sssp{.source = 4});
  const RunResult r = engine.run();
  EXPECT_EQ(r.total_executed_vertices, 6u + 5u)
      << "wasted slots must never be executed";
  for (vid_t id = 4; id < 10; ++id) {
    EXPECT_EQ(engine.value_of(id), id - 4);
  }
}

TEST(Engine, SharedExternalPoolWorks) {
  runtime::ThreadPool pool(2);
  const CsrGraph g = make_graph(graph::path_graph(10));
  Engine<PathRelay, CombinerKind::kSpinlockPush, true> a(g, {}, {}, &pool);
  Engine<PathRelay, CombinerKind::kMutexPush, false> b(g, {}, {}, &pool);
  EXPECT_EQ(a.run().supersteps, 10u);
  EXPECT_EQ(b.run().supersteps, 10u);
}

TEST(Engine, SingleThreadedOptionIsExact) {
  const CsrGraph g = make_graph(graph::cycle_graph(16));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> engine(
      g, {}, EngineOptions{.threads = 1});
  (void)engine.run();
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    EXPECT_EQ(engine.values()[s], 0u) << "cycle collapses to min id 0";
  }
}

TEST(Engine, MessageCountMatchesBroadcastFanout) {
  // Star centre broadcasts to n-1 leaves in superstep 0 of Hashmin; leaves
  // broadcast back only if they improve.
  const CsrGraph g = make_graph(graph::star_graph(8, true));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> engine(
      g, {}, EngineOptions{.collect_superstep_stats = true});
  const RunResult r = engine.run();
  ASSERT_GE(r.per_superstep.size(), 2u);
  EXPECT_EQ(r.per_superstep[0].messages_sent, 7u + 7u)
      << "superstep 0: everyone broadcasts its own id";
}

/// Directions of a run's supersteps, as one letter each (P push, L pull).
std::string directions(const RunResult& r) {
  std::string out;
  for (const SuperstepStats& s : r.per_superstep) {
    out += s.direction == Direction::kPull ? 'L' : 'P';
  }
  return out;
}

TEST(Engine, DirectionOptimisingHashminPullsItsDenseWaveAndPushesItsTail) {
  // Lattice Hashmin: superstep 0 broadcasts on every edge and the min-label
  // wave stays dense for a while, so the engine pulls; as the wave thins
  // it switches back to push for the tail. Values equal the fixed run's.
  const CsrGraph g = make_graph(graph::grid_2d(30, 30));
  EngineOptions options{.threads = 2, .collect_superstep_stats = true};
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> adaptive(
      g, {}, options);
  const RunResult r = adaptive.run();
  const std::string dirs = directions(r);
  ASSERT_EQ(dirs.size(), r.supersteps);
  EXPECT_EQ(dirs.front(), 'P') << "superstep 0 always pushes: " << dirs;
  EXPECT_EQ(dirs[1], 'L') << "a full superstep 0 turns to pull: " << dirs;
  EXPECT_EQ(dirs.back(), 'P') << "the tail pushes: " << dirs;
  const std::size_t last_pull = dirs.rfind('L');
  EXPECT_EQ(dirs.find('L', 1), 1u);
  EXPECT_EQ(dirs.substr(1, last_pull), std::string(last_pull, 'L'))
      << "one pull phase, then push to the end: " << dirs;

  options.fixed_direction = true;
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> fixed(g, {},
                                                                  options);
  const RunResult f = fixed.run();
  EXPECT_EQ(directions(f), std::string(f.supersteps, 'P'));
  ASSERT_EQ(f.supersteps, r.supersteps);
  for (std::size_t s = 0; s < r.supersteps; ++s) {
    EXPECT_EQ(r.per_superstep[s].executed_vertices,
              f.per_superstep[s].executed_vertices);
    EXPECT_EQ(r.per_superstep[s].messages_sent,
              f.per_superstep[s].messages_sent);
  }
  EXPECT_TRUE(std::equal(adaptive.values().begin(), adaptive.values().end(),
                         fixed.values().begin(), fixed.values().end()));
}

TEST(Engine, DirectionOptimisingSsspOnlyPushes) {
  // One source on a lattice: the wavefront never carries a sizeable share
  // of |E|, so no superstep pays a full scan.
  const CsrGraph g = make_graph(graph::grid_2d(30, 30));
  Engine<apps::Sssp, CombinerKind::kMutexPush, true> engine(
      g, apps::Sssp{.source = 0},
      EngineOptions{.threads = 2, .collect_superstep_stats = true});
  const RunResult r = engine.run();
  EXPECT_GT(r.supersteps, 30u);
  EXPECT_EQ(directions(r), std::string(r.supersteps, 'P'));
}

TEST(Engine, DirectionIsFixedWithoutInEdgesAndForOtherVersions) {
  // Without in-edge lists nothing can gather, so the engine keeps pushing;
  // the pull combiner always pulls; scan-all push always pushes.
  const EdgeList e = graph::grid_2d(12, 12);
  const CsrGraph out_only = graph::CsrGraph::build(e);
  const EngineOptions options{.collect_superstep_stats = true};
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, true> no_in(
      out_only, {}, options);
  const RunResult a = no_in.run();
  EXPECT_EQ(directions(a), std::string(a.supersteps, 'P'));

  const CsrGraph g = make_graph(e);
  Engine<apps::Hashmin, CombinerKind::kPull, true> pull(g, {}, options);
  const RunResult b = pull.run();
  EXPECT_EQ(directions(b), std::string(b.supersteps, 'L'));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> scan(g, {},
                                                                 options);
  const RunResult c = scan.run();
  EXPECT_EQ(directions(c), std::string(c.supersteps, 'P'));
}

}  // namespace
}  // namespace ipregel
