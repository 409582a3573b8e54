// Differential test of direction optimisation: on seeded random small
// graphs (R-MAT, lattice, star, path, isolated vertices, empty), every
// broadcast-only always-halting app runs under {mutex, spinlock} with the
// selection bypass, direction-optimising and fixed, at threads {1, 2, 4}.
// Every run must equal the serial reference exactly (where one exists),
// be bit-identical to the fixed single-threaded run, and record the same
// (executed, active, sent) per superstep — the direction changes how
// messages travel, never which vertices run or what they compute.
//
// IPREGEL_CHAOS_SEED replays or sweeps the graph draw.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/hashmin.hpp"
#include "apps/in_degree.hpp"
#include "apps/kcore.hpp"
#include "apps/label_propagation.hpp"
#include "apps/max_value.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/serial_reference.hpp"
#include "apps/sssp.hpp"
#include "chaos_seed.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph_draw.hpp"
#include "runtime/rng.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using graph::CsrGraph;
using graph::vid_t;
using testing::Case;
using testing::draw_graphs;

template <typename Program>
struct Run {
  std::vector<typename Program::value_type> values;
  RunResult result;
};

template <typename Program>
Run<Program> run(const CsrGraph& g, const Program& program,
                 CombinerKind combiner, bool adaptive, std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.fixed_direction = !adaptive;
  options.collect_superstep_stats = true;
  Run<Program> r;
  r.result = run_version(g, program, VersionId{combiner, true}, options,
                         nullptr, &r.values);
  return r;
}

/// Direction counts over every adaptive run of the sweep: the test is
/// only meaningful if the switch fired both ways somewhere.
struct Coverage {
  std::size_t pulled_supersteps = 0;
  std::size_t returns_to_push = 0;
};

/// Runs `program` on `c` in every cell and checks it against the fixed
/// single-threaded spinlock run; `check_reference(values)` compares that
/// run with the serial reference.
template <typename Program, typename Check>
void differential(const Case& c, const Program& program,
                  const std::string& app, std::uint64_t seed,
                  Coverage& coverage, Check&& check_reference) {
  const Run<Program> ref =
      run(c.g, program, CombinerKind::kSpinlockPush, false, 1);
  {
    SCOPED_TRACE(c.name + " / " + app + " / serial reference");
    check_reference(ref.values);
  }
  for (const CombinerKind combiner :
       {CombinerKind::kMutexPush, CombinerKind::kSpinlockPush}) {
    for (const bool adaptive : {false, true}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        const std::string cell = c.name + "/" + app + "/" +
                                 std::string(to_string(combiner)) +
                                 (adaptive ? "/adaptive" : "/fixed") + "/t" +
                                 std::to_string(threads);
        testing::announce_cell("direction_differential", seed, cell);
        SCOPED_TRACE(cell);
        const Run<Program> r = run(c.g, program, combiner, adaptive, threads);
        ASSERT_EQ(r.values, ref.values) << "values differ from fixed";
        ASSERT_EQ(r.result.supersteps, ref.result.supersteps);
        ASSERT_EQ(r.result.per_superstep.size(),
                  ref.result.per_superstep.size());
        for (std::size_t s = 0; s < r.result.per_superstep.size(); ++s) {
          const SuperstepStats& a = r.result.per_superstep[s];
          const SuperstepStats& b = ref.result.per_superstep[s];
          ASSERT_EQ(a.executed_vertices, b.executed_vertices) << "step " << s;
          ASSERT_EQ(a.remaining_active, b.remaining_active) << "step " << s;
          ASSERT_EQ(a.messages_sent, b.messages_sent) << "step " << s;
          if (!adaptive) {
            ASSERT_EQ(a.direction, Direction::kPush) << "step " << s;
          } else if (a.direction == Direction::kPull) {
            ++coverage.pulled_supersteps;
          } else if (s > 0 && r.result.per_superstep[s - 1].direction ==
                                  Direction::kPull) {
            ++coverage.returns_to_push;
          }
        }
      }
    }
  }
}

template <typename T>
void expect_equal_on_slots(const CsrGraph& g, const std::vector<T>& got,
                           const std::vector<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(got[s], want[s]) << "slot " << s << " (id " << g.id_of(s)
                               << ")";
  }
}

TEST(DirectionDifferential, AdaptiveMatchesFixedAndSerialEverywhere) {
  const std::uint64_t seed = testing::chaos_seed(20261017);
  runtime::SplitMix64 rng(runtime::mix64(seed ^ 0xD1F));
  Coverage coverage;
  for (const Case& c : draw_graphs(seed)) {
    const CsrGraph& g = c.g;
    const std::size_t n = g.num_vertices();
    const auto pick = [&] {
      return g.id_of(g.first_slot() + static_cast<std::size_t>(
                                           rng.next() % (n == 0 ? 1 : n)));
    };
    differential(c, apps::Hashmin{}, "hashmin", seed, coverage,
                 [&](const auto& v) {
                   expect_equal_on_slots(g, v, apps::serial::hashmin(g));
                 });
    differential(c, apps::InDegree{}, "in_degree", seed, coverage,
                 [&](const auto& v) {
                   expect_equal_on_slots(g, v, apps::serial::in_degree(g));
                 });
    differential(c, apps::LabelPropagation{}, "label_propagation", seed,
                 coverage, [&](const auto& v) {
                   expect_equal_on_slots(g, v,
                                         apps::serial::label_propagation(g));
                 });
    const std::uint64_t max_seed = rng.next();
    differential(c, apps::MaxValue{.seed = max_seed}, "max_value", seed,
                 coverage, [&](const auto& v) {
                   expect_equal_on_slots(
                       g, v, apps::serial::max_value(g, max_seed));
                 });
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.next() % 3);
    differential(c, apps::KCore{.k = k}, "kcore", seed, coverage,
                 [&](const auto& v) {
                   if (!c.symmetric) {
                     return;  // the serial peeling assumes symmetric input
                   }
                   const std::vector<bool> want = apps::serial::k_core(g, k);
                   for (std::size_t s = g.first_slot(); s < g.num_slots();
                        ++s) {
                     ASSERT_EQ(!v[s].removed, want[s]) << "slot " << s;
                   }
                 });
    if (n == 0) {
      continue;  // the source-based apps need a source vertex
    }
    const vid_t source = pick();
    differential(c, apps::Sssp{.source = source}, "sssp", seed, coverage,
                 [&](const auto& v) {
                   expect_equal_on_slots(g, v,
                                         apps::serial::sssp_unit(g, source));
                 });
    differential(c, apps::BfsParent{.source = source}, "bfs", seed,
                 coverage, [&](const auto& v) {
                   expect_equal_on_slots(g, v,
                                         apps::serial::bfs_parent(g, source));
                 });
    const std::array<vid_t, 4> sources = {pick(), pick(), pick(), source};
    differential(c, apps::MultiBfs<4>{.sources = sources}, "multi_bfs", seed,
                 coverage, [&](const auto& v) {
                   for (std::size_t lane = 0; lane < 4; ++lane) {
                     const auto want =
                         apps::serial::sssp_unit(g, sources[lane]);
                     for (std::size_t s = g.first_slot(); s < g.num_slots();
                          ++s) {
                       ASSERT_EQ(v[s][lane], want[s])
                           << "lane " << lane << " slot " << s;
                     }
                   }
                 });
  }
  EXPECT_GT(coverage.pulled_supersteps, 0u)
      << "no adaptive run ever pulled: the switch never fired";
  EXPECT_GT(coverage.returns_to_push, 0u)
      << "no adaptive run ever switched back to push";
}

}  // namespace
}  // namespace ipregel
