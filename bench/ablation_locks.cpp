// Ablation for the paper's section 6.1: block-waiting (mutex) vs
// busy-waiting (spinlock) push combiners.
//
// Two claims are checked:
//  1. Size: a mutex is 40 bytes, a spinlock 4 — a 90% reduction that,
//     multiplied by one-lock-per-vertex, shrinks the data-race protection
//     of the paper's graphs from 730/958 MB to 73/96 MB. The exact paper
//     numbers are recomputed from the real |V| values and printed.
//  2. Speed: for critical sections as short as a combiner's
//     compare-and-replace, busy-waiting beats suspending the thread,
//     uncontended and contended alike.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>

#include "core/mailbox.hpp"
#include "runtime/spin_lock.hpp"

namespace {

using ipregel::Mailboxes;
using ipregel::runtime::SpinLock;

constexpr std::size_t kSlots = 1 << 16;

void combine_min(std::uint64_t& old, const std::uint64_t& incoming) {
  if (incoming < old) {
    old = incoming;
  }
}

template <typename Lock>
void BM_PushDeliver(benchmark::State& state) {
  static Mailboxes<std::uint64_t, Lock>* boxes = nullptr;
  if (state.thread_index() == 0) {
    boxes = new Mailboxes<std::uint64_t, Lock>(kSlots);
  }
  // Each thread walks the slots with a different stride so contention is
  // incidental (as in real deliveries), not pathological.
  const std::size_t stride =
      state.thread_index() == 0 ? 7 : 13;
  std::size_t slot = static_cast<std::size_t>(state.thread_index()) * 31;
  std::uint64_t value = 0;
  for (auto _ : state) {
    slot = (slot + stride) % kSlots;
    boxes->deliver(0, slot, ++value, combine_min);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete boxes;
    boxes = nullptr;
  }
}

template <typename Lock>
void BM_PushDeliverHotSpot(benchmark::State& state) {
  // All threads hammer 8 slots: the high-contention regime of a hub vertex
  // in a scale-free graph.
  static Mailboxes<std::uint64_t, Lock>* boxes = nullptr;
  if (state.thread_index() == 0) {
    boxes = new Mailboxes<std::uint64_t, Lock>(kSlots);
  }
  std::uint64_t value = 0;
  std::size_t slot = 0;
  for (auto _ : state) {
    slot = (slot + 1) % 8;
    boxes->deliver(0, slot, ++value, combine_min);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete boxes;
    boxes = nullptr;
  }
}

BENCHMARK_TEMPLATE(BM_PushDeliver, std::mutex)->Threads(1)->Threads(2);
BENCHMARK_TEMPLATE(BM_PushDeliver, SpinLock)->Threads(1)->Threads(2);
BENCHMARK_TEMPLATE(BM_PushDeliverHotSpot, std::mutex)->Threads(1)->Threads(2);
BENCHMARK_TEMPLATE(BM_PushDeliverHotSpot, SpinLock)->Threads(1)->Threads(2);

void print_size_accounting() {
  struct PaperGraph {
    const char* name;
    std::size_t vertices;
  };
  constexpr PaperGraph graphs[] = {{"Wikipedia", 18'268'992},
                                   {"USA roads", 23'947'347}};
  std::printf("section 6.1 size accounting on this toolchain:\n");
  std::printf("  sizeof(std::mutex) = %zu bytes (paper: 40)\n",
              sizeof(std::mutex));
  std::printf("  sizeof(SpinLock)   = %zu bytes (paper: 4)\n",
              sizeof(SpinLock));
  for (const auto& g : graphs) {
    const double mutex_mb =
        static_cast<double>(g.vertices * sizeof(std::mutex)) / 1e6;
    const double spin_mb =
        static_cast<double>(g.vertices * sizeof(SpinLock)) / 1e6;
    std::printf(
        "  %s (|V| = %zu): mutex locks %.0f MB -> spinlocks %.0f MB "
        "(paper: 730->73 and 958->96)\n",
        g.name, g.vertices, mutex_mb, spin_mb);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_size_accounting();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
