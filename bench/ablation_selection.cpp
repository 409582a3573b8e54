// Ablation for the paper's section 4: the cost of the selection phase.
//
// The traditional approach iterates all vertices every superstep and
// checks each one's active state and inbox; inactive vertices are
// "unfruitful checks". The selection bypass replaces the scan with a
// sender-built work list. The benchmark sweeps the active-vertex ratio and
// measures the per-superstep selection cost of both strategies: scan-all
// is O(|V|) regardless of activity, the bypass is O(active) — they cross
// near ratio 1, and the bypass wins by orders of magnitude in the SSSP
// regime (ratio ~1e-3 on road networks).
//
// The second sweep calibrates the direction-optimising engine's switch
// (core/engine.hpp, kPullAbove/kPushBelow): on the road-network lattice it
// times one send+read cycle at a given share of senders, once pushed
// (locked delivery, frontier, consume) and once pulled (arm the outbox,
// scan, gather, wipe). Push cost grows with the messages sent, pull cost
// barely moves; the share where they cross, as a fraction of |E|, is where
// the engine should switch.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/frontier.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using ipregel::Frontier;
using ipregel::runtime::Xoshiro256;
namespace graph = ipregel::graph;

constexpr std::size_t kVertices = 1 << 20;

/// active-per-mille comes in as the benchmark argument.
std::vector<std::uint8_t> make_activity(std::int64_t per_mille) {
  std::vector<std::uint8_t> active(kVertices, 0);
  Xoshiro256 rng(5);
  const auto target = static_cast<std::size_t>(
      kVertices * static_cast<std::size_t>(per_mille) / 1000);
  std::size_t set = 0;
  while (set < target) {
    const auto i = static_cast<std::size_t>(rng.next_below(kVertices));
    if (active[i] == 0) {
      active[i] = 1;
      ++set;
    }
  }
  return active;
}

void BM_ScanAllSelection(benchmark::State& state) {
  const auto active = make_activity(state.range(0));
  std::uint64_t executed = 0;
  for (auto _ : state) {
    // The traditional selection phase: check every vertex.
    for (std::size_t v = 0; v < kVertices; ++v) {
      if (active[v] != 0) {
        benchmark::DoNotOptimize(++executed);
      }
    }
  }
  state.counters["active_ratio"] =
      static_cast<double>(state.range(0)) / 1000.0;
}

void BM_BypassSelection(benchmark::State& state) {
  const auto active = make_activity(state.range(0));
  // Senders built the list during the previous superstep; measure the
  // consumer side: build + drain, which is what replaces the scan.
  std::vector<std::size_t> active_slots;
  for (std::size_t v = 0; v < kVertices; ++v) {
    if (active[v] != 0) {
      active_slots.push_back(v);
    }
  }
  Frontier frontier(kVertices, 1, /*with_dedup_bitmap=*/false);
  std::uint64_t executed = 0;
  for (auto _ : state) {
    for (const std::size_t v : active_slots) {
      frontier.add_claimed(v, 0);
    }
    frontier.flip();
    for (const std::size_t v : frontier.current()) {
      benchmark::DoNotOptimize(executed += v != 0 ? 1 : 1);
    }
  }
  state.counters["active_ratio"] =
      static_cast<double>(state.range(0)) / 1000.0;
}

BENCHMARK(BM_ScanAllSelection)->Arg(1)->Arg(10)->Arg(100)->Arg(500)->Arg(1000);
BENCHMARK(BM_BypassSelection)->Arg(1)->Arg(10)->Arg(100)->Arg(500)->Arg(1000);

/// Superstep 0: every vertex broadcasts, which is dense enough that a
/// direction-optimising engine pulls next. Superstep 1: the lowest
/// `per_mille` of the ids broadcast again — a band of lattice rows, as
/// coherent as the min-label wave of Hashmin (a random pick would instead
/// charge pull a branch miss per in-edge that no real frontier causes).
/// Superstep 2: their recipients read and halt. Supersteps 1 and 2 are
/// one send+read cycle at that density, in the direction the engine chose.
struct DensityProbe {
  using value_type = std::uint32_t;
  using message_type = std::uint32_t;
  static constexpr bool broadcast_only = true;
  static constexpr bool always_halts = true;
  std::uint32_t per_mille = 0;

  [[nodiscard]] value_type initial_value(graph::vid_t id) const noexcept {
    return id;
  }
  void compute(auto& ctx) const {
    message_type m = 0;
    while (ctx.get_next_message(m)) {
      ctx.value() = std::min(ctx.value(), m);
    }
    const bool picked = std::uint64_t{ctx.id()} * 1000 <
                        std::uint64_t{per_mille} * ctx.num_vertices();
    if (ctx.superstep() == 0 || (ctx.superstep() == 1 && picked)) {
      ctx.broadcast(ctx.value());
    }
    ctx.vote_to_halt();
  }
  static void combine(message_type& old, const message_type& in) noexcept {
    old = std::min(old, in);
  }
};

/// The road stand-in, shaped like perfbench's road-engine graph (400x600
/// lattice, 3% of links removed); the sweep runs it on 2 threads.
const graph::CsrGraph& road() {
  static const graph::CsrGraph g = graph::CsrGraph::build(
      graph::grid_2d(400, 600, {.removal_fraction = 0.03, .seed = 2}),
      {.build_in_edges = true});
  return g;
}

template <ipregel::Direction D>
void BM_SendReadCycle(benchmark::State& state) {
  static ipregel::runtime::ThreadPool pool(2);
  const graph::CsrGraph& g = road();
  ipregel::EngineOptions options;
  options.collect_superstep_stats = true;
  options.fixed_direction = D == ipregel::Direction::kPush;
  ipregel::Engine<DensityProbe, ipregel::CombinerKind::kSpinlockPush, true>
      engine(g, DensityProbe{static_cast<std::uint32_t>(state.range(0))},
             options, &pool);
  std::size_t sent = 0;
  for (auto _ : state) {
    const ipregel::RunResult r = engine.run();
    if (r.per_superstep.size() < 3 ||
        r.per_superstep[1].direction != D) {
      state.SkipWithError("the engine did not send in the probed direction");
      return;
    }
    sent = r.per_superstep[1].messages_sent;
    state.SetIterationTime(r.per_superstep[1].seconds +
                           r.per_superstep[2].seconds);
  }
  state.counters["sent_per_edge"] =
      static_cast<double>(sent) / static_cast<double>(g.num_edges());
}

BENCHMARK_TEMPLATE(BM_SendReadCycle, ipregel::Direction::kPush)
    ->UseManualTime()->Unit(benchmark::kMicrosecond)
    ->Arg(10)->Arg(50)->Arg(100)->Arg(150)->Arg(200)->Arg(300)->Arg(500)
    ->Arg(1000);
BENCHMARK_TEMPLATE(BM_SendReadCycle, ipregel::Direction::kPull)
    ->UseManualTime()->Unit(benchmark::kMicrosecond)
    ->Arg(10)->Arg(50)->Arg(100)->Arg(150)->Arg(200)->Arg(300)->Arg(500)
    ->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
