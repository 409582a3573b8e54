// Multi-source lane programs (apps/multi_bfs.hpp, apps/ppr.hpp): every
// lane of a batched run must be bit-identical (BFS) or numerically equal
// (PPR) to the corresponding single-query serial reference — the
// correctness contract the query broker's batching rests on.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "apps/multi_bfs.hpp"
#include "apps/ppr.hpp"
#include "apps/serial_reference.hpp"
#include "apps/sssp.hpp"
#include "core/program_traits.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace {

using namespace ipregel;  // NOLINT(google-build-using-namespace)

// The concept is the broker's compile-time contract: lane programs expose
// kLanes matching their array width, plain programs count as one lane.
static_assert(LaneProgram<apps::MultiBfs<4>>);
static_assert(LaneProgram<apps::MultiPpr<2>>);
static_assert(!LaneProgram<apps::Sssp>);
static_assert(lane_count<apps::MultiBfs<8>> == 8);
static_assert(lane_count<apps::MultiPpr<1>> == 1);
static_assert(lane_count<apps::Sssp> == 1);

template <std::size_t K>
std::vector<typename apps::MultiBfs<K>::value_type> expected_bfs(
    const graph::CsrGraph& g,
    const std::array<graph::vid_t, K>& sources) {
  std::vector<typename apps::MultiBfs<K>::value_type> expected(
      g.num_slots());
  for (std::size_t k = 0; k < K; ++k) {
    const std::vector<std::uint32_t> lane =
        apps::serial::sssp_unit(g, sources[k]);
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      expected[s][k] = lane[s];
    }
  }
  return expected;
}

TEST(MultiBfs, LanesMatchSerialReferenceOnScaleFree) {
  const graph::CsrGraph g =
      ipregel::testing::make_graph(graph::rmat(9, 6, {.seed = 11}));
  apps::MultiBfs<4> program;
  program.sources = {2, 17, 101, 2};  // lane 3 duplicates lane 0 (padding)
  ipregel::testing::expect_all_versions_match(
      g, program, expected_bfs<4>(g, program.sources), "multi-bfs/rmat");
}

TEST(MultiBfs, LanesMatchSerialReferenceOnHighDiameter) {
  // The long-wavefront regime: lanes with very different eccentricities
  // share one run; early-finished lanes must stay frozen while the
  // farthest lane keeps relaxing.
  const graph::CsrGraph g = ipregel::testing::make_graph(
      graph::grid_2d(17, 23, {.removal_fraction = 0.15, .seed = 5}));
  apps::MultiBfs<2> program;
  program.sources = {0, 17 * 23 - 1};
  ipregel::testing::expect_all_versions_match(
      g, program, expected_bfs<2>(g, program.sources), "multi-bfs/grid");
}

TEST(MultiBfs, SingleLaneMatchesSssp) {
  // MultiBfs<1> is unit SSSP in a one-element array: same distances as
  // the paper's Fig. 5 program, lane-wrapped.
  const graph::CsrGraph g =
      ipregel::testing::make_graph(graph::rmat(8, 8, {.seed = 3}));
  apps::MultiBfs<1> program;
  program.sources = {2};
  std::vector<apps::MultiBfs<1>::value_type> values;
  run_version(g, program,
              {CombinerKind::kSpinlockPush, /*selection_bypass=*/true},
              EngineOptions{}, nullptr, &values);
  const std::vector<std::uint32_t> expected =
      apps::serial::sssp_unit(g, 2);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(values[s][0], expected[s]) << "slot " << s;
  }
}

TEST(MultiBfs, UnreachableLaneStaysInfinite) {
  // Directed path: a source at the tail reaches nothing but itself.
  const graph::CsrGraph g = ipregel::testing::make_graph(graph::path_graph(64));
  apps::MultiBfs<2> program;
  program.sources = {0, 63};
  std::vector<apps::MultiBfs<2>::value_type> values;
  run_version(g, program,
              {CombinerKind::kSpinlockPush, /*selection_bypass=*/true},
              EngineOptions{}, nullptr, &values);
  EXPECT_EQ(values[g.slot_of(63)][1], 0u);
  EXPECT_EQ(values[g.slot_of(0)][1], apps::MultiBfs<2>::kInfinity);
  EXPECT_EQ(values[g.slot_of(63)][0], 63u);
}

TEST(MultiPpr, LanesMatchSerialReference) {
  const graph::CsrGraph g =
      ipregel::testing::make_graph(graph::rmat(9, 6, {.seed = 21}));
  apps::MultiPpr<2> program;
  program.rounds = 15;
  program.set_seeds(0, {2, 5, 9});
  program.set_seeds(1, {40});
  const std::vector<double> lane0 =
      apps::serial::ppr(g, {2, 5, 9}, program.rounds, program.damping);
  const std::vector<double> lane1 =
      apps::serial::ppr(g, {40}, program.rounds, program.damping);
  for (const VersionId v : applicable_versions<apps::MultiPpr<2>>()) {
    std::vector<apps::MultiPpr<2>::value_type> values;
    run_version(g, program, v, EngineOptions{}, nullptr, &values);
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      ASSERT_NEAR(values[s][0], lane0[s], 1e-12)
          << version_name(v) << " lane 0, slot " << s;
      ASSERT_NEAR(values[s][1], lane1[s], 1e-12)
          << version_name(v) << " lane 1, slot " << s;
    }
  }
}

TEST(MultiPpr, EmptySeedLaneIsAllZero) {
  // Padding lanes of a short batch carry an empty seed set and must not
  // perturb the served lanes.
  const graph::CsrGraph g =
      ipregel::testing::make_graph(graph::rmat(8, 6, {.seed = 7}));
  apps::MultiPpr<2> program;
  program.rounds = 10;
  program.set_seeds(0, {3, 14});
  const std::vector<double> lane0 =
      apps::serial::ppr(g, {3, 14}, program.rounds, program.damping);
  std::vector<apps::MultiPpr<2>::value_type> values;
  run_version(g, program, {CombinerKind::kSpinlockPush, false},
              EngineOptions{}, nullptr, &values);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_NEAR(values[s][0], lane0[s], 1e-12) << "served lane, slot " << s;
    ASSERT_EQ(values[s][1], 0.0) << "padding lane, slot " << s;
  }
}

TEST(MultiPpr, DuplicateSeedsCollapse) {
  // set_seeds dedups, so {5, 5, 9} and {5, 9} are the same query — the
  // cache keys on the normalised seed set for the same reason.
  const graph::CsrGraph g =
      ipregel::testing::make_graph(graph::rmat(8, 6, {.seed = 13}));
  apps::MultiPpr<1> a;
  a.rounds = 8;
  a.set_seeds(0, {5, 5, 9});
  apps::MultiPpr<1> b;
  b.rounds = 8;
  b.set_seeds(0, {9, 5});
  std::vector<apps::MultiPpr<1>::value_type> va;
  std::vector<apps::MultiPpr<1>::value_type> vb;
  // Pull folds each gather in CSR order at any thread count; a push
  // combiner's float sums follow thread interleaving, so exact equality
  // across two runs holds only here.
  run_version(g, a, {CombinerKind::kPull, false}, EngineOptions{}, nullptr,
              &va);
  run_version(g, b, {CombinerKind::kPull, false}, EngineOptions{}, nullptr,
              &vb);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(va[s][0], vb[s][0]) << "slot " << s;
  }
}

}  // namespace
