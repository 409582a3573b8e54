// Differential test of the sharded runtime: the seeded graph draw the
// direction differential uses (graph_draw.hpp) runs under shm
// run_sharded for Hashmin, SSSP, label propagation and PageRank at
// {1, 2, 4} shards under {block, hash} partitions. Every integer
// min-combine result must equal the serial reference exactly, one shard
// must be bit-identical to the one-thread engine, and PageRank beyond one
// shard must stay within test_shard_runs' 1e-12 of that engine (cross-shard
// delivery reassociates the sum).
//
// Each (app, shards, partition) cell runs on two graphs of the draw,
// rotated so every app meets every graph: at most 48 forked runs (SSSP
// skips the empty graph).
// IPREGEL_CHAOS_SEED replays or sweeps the graph draw.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/label_propagation.hpp"
#include "apps/pagerank.hpp"
#include "apps/serial_reference.hpp"
#include "apps/sssp.hpp"
#include "chaos_seed.hpp"
#include "core/runner.hpp"
#include "graph_draw.hpp"
#include "runtime/rng.hpp"
#include "shard/coordinator.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using graph::CsrGraph;
using shard::PartitionScheme;
using testing::Case;

constexpr std::size_t kShardCounts[] = {1, 2, 4};
constexpr PartitionScheme kSchemes[] = {PartitionScheme::kBlock,
                                        PartitionScheme::kHash};
/// test_shard_runs' PageRank tolerance beyond one shard.
constexpr double kPageRankTolerance = 1e-12;

/// The one-thread mutex-push engine: the schedule a shard worker
/// reproduces slot for slot.
template <typename Program>
std::vector<typename Program::value_type> engine_values(const CsrGraph& g,
                                                        const Program& p) {
  EngineOptions options;
  options.threads = 1;
  std::vector<typename Program::value_type> values;
  (void)run_version(g, p, VersionId{CombinerKind::kMutexPush, false}, options,
                    nullptr, &values);
  return values;
}

/// Runs one cell: `p` sharded over `c`, checked against the engine and,
/// for an integer app, against its serial reference `serial` (PageRank
/// passes none).
template <typename Program>
void check_cell(const Case& c, const Program& p, std::size_t shards,
                PartitionScheme scheme,
                const std::vector<typename Program::value_type>& serial) {
  using Value = typename Program::value_type;
  const CsrGraph& g = c.g;
  shard::ShardOptions options;
  options.num_shards = shards;
  options.partition = scheme;
  std::vector<Value> got;
  const shard::ShardOutcome outcome = shard::run_sharded(g, p, options, &got);
  ASSERT_TRUE(outcome.ok()) << outcome.error->what();
  ASSERT_GE(got.size(), g.num_slots());
  const std::vector<Value> want = engine_values(g, p);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    if (shards == 1) {
      ASSERT_EQ(std::memcmp(&got[s], &want[s], sizeof(Value)), 0)
          << "slot " << s << ": one shard is not bit-identical to the engine";
    }
    if constexpr (std::is_floating_point_v<Value>) {
      ASSERT_NEAR(got[s], want[s], kPageRankTolerance) << "slot " << s;
    } else {
      ASSERT_EQ(got[s], serial[s]) << "slot " << s << " (id " << g.id_of(s)
                                   << ") differs from the serial reference";
    }
  }
}

TEST(ShardDifferential, ShardedRunsMatchSerialAndEngine) {
  const std::uint64_t seed = testing::chaos_seed(20261019);
  const std::vector<Case> graphs = testing::draw_graphs(seed);
  runtime::SplitMix64 rng(runtime::mix64(seed ^ 0x5AD));
  const char* const apps[] = {"hashmin", "sssp", "label_propagation",
                              "pagerank"};
  std::size_t cell = 0;
  for (std::size_t app = 0; app < 4; ++app) {
    for (const std::size_t shards : kShardCounts) {
      for (const PartitionScheme scheme : kSchemes) {
        for (const std::size_t offset : {0u, 3u}) {
          const Case& c = graphs[(cell + offset) % graphs.size()];
          const CsrGraph& g = c.g;
          const std::string name =
              c.name + "/" + apps[app] + "/s" + std::to_string(shards) +
              (scheme == PartitionScheme::kBlock ? "/block" : "/hash");
          testing::announce_cell("shard_differential", seed, name);
          SCOPED_TRACE(name);
          switch (app) {
            case 0: {
              const auto serial = apps::serial::hashmin(g);
              check_cell(c, apps::Hashmin{}, shards, scheme, serial);
              break;
            }
            case 1: {
              if (g.num_vertices() == 0) {
                break;  // SSSP needs a source vertex
              }
              const graph::vid_t source =
                  g.id_of(g.first_slot() + rng.next() % g.num_vertices());
              const auto serial = apps::serial::sssp_unit(g, source);
              check_cell(c, apps::Sssp{.source = source}, shards, scheme,
                         serial);
              break;
            }
            case 2: {
              const auto serial = apps::serial::label_propagation(g);
              check_cell(c, apps::LabelPropagation{}, shards, scheme,
                         serial);
              break;
            }
            default: {
              apps::PageRank pr;
              pr.rounds = 10;
              check_cell(c, pr, shards, scheme, std::vector<double>{});
              break;
            }
          }
        }
        ++cell;
      }
    }
  }
}

}  // namespace
}  // namespace ipregel
