#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "graph/types.hpp"
#include "store/page_cache.hpp"
#include "store/paged_graph.hpp"

namespace ipregel::store {

/// Which combiner a paged run uses.
enum class StreamMode : std::uint8_t {
  /// CombinerKind::kPull: senders arm a single resident outbox value (a
  /// broadcast reads only the resident out-degree, never a target page);
  /// receivers gather from in-neighbours in CSR order, streaming the
  /// in-target pages. Bit-identical to the in-RAM pull engine for any
  /// program, PageRank's floats included.
  kPull,
  /// CombinerKind::kSpinlockPush: senders stream their out-target pages
  /// and combine into each receiver's single-slot inbox under its lock.
  /// Delivery order follows thread interleaving, so identity with the
  /// in-RAM engine needs an order-insensitive combiner (min/max/integer
  /// sum — SSSP, Hashmin), the caveat every push combiner carries.
  kPush,
};

/// A paged run takes the engine's options unchanged.
using PagedRunOptions = EngineOptions;

/// Statistics of a paged run: the engine's RunResult plus the cache
/// counters accumulated while edges streamed through.
struct PagedRunResult {
  RunResult run{};
  PageCacheStats cache{};
};

/// Runs a program over a paged store: `Engine<Program, kPull or
/// kSpinlockPush, false, PagedGraph>`. Vertex values, halted flags and
/// mailboxes stay resident (O(V)); edge pages stream through the graph's
/// budgeted PageCache (O(E)). Everything else — the superstep, the thread
/// pool, watchdogs and the cancel token, the memory budget, per-superstep
/// stats, aggregators, integrity tiers — is the engine's, and a page that
/// cannot be served ends the run as RunError{kPageError}.
///
/// This adapter only picks the engine for a StreamMode, keeps the paged
/// default of one worker thread (the cache budget must admit a pinned
/// page per worker; EngineOptions' 0 would mean every core), and keeps the
/// final values as a vector.
template <typename Program>
class StreamingRunner {
 public:
  using Value = typename Program::value_type;

  StreamingRunner(PagedGraph& graph, Program program = {},
                  PagedRunOptions options = {})
      : graph_(graph), program_(std::move(program)), options_(options) {
    if (options_.threads == 0) {
      options_.threads = 1;
    }
  }

  StreamingRunner(const StreamingRunner&) = delete;
  StreamingRunner& operator=(const StreamingRunner&) = delete;

  /// Runs to completion (or the superstep cap). Throws RunError, and
  /// std::invalid_argument when kPull meets a program that is not
  /// broadcast-only or a store written without in-edges. Reentrant.
  PagedRunResult run(StreamMode mode) {
    PagedRunResult out;
    out.run = with_engine(mode, [](auto& engine) { return engine.run(); });
    out.cache = graph_.cache().stats();
    return out;
  }

  /// run() with RunError surfaced as outcome data (Engine::run_checked).
  RunOutcome run_checked(StreamMode mode) {
    return with_engine(mode,
                       [](auto& engine) { return engine.run_checked(); });
  }

  [[nodiscard]] const std::vector<Value>& values() const noexcept {
    return values_;
  }
  [[nodiscard]] const Value& value_of(graph::vid_t id) const noexcept {
    return values_[graph_.slot_of(id)];
  }

 private:
  // The pull engine does not compile for programs that send targeted
  // messages, so it is only named for broadcast-only ones.
  using PullEngine = std::conditional_t<
      Program::broadcast_only,
      Engine<Program, CombinerKind::kPull, false, PagedGraph>, std::monostate>;
  using PushEngine =
      Engine<Program, CombinerKind::kSpinlockPush, false, PagedGraph>;

  template <typename F>
  auto with_engine(StreamMode mode, F&& f) {
    if (mode == StreamMode::kPull) {
      if constexpr (Program::broadcast_only) {
        return drive(pull_, push_, f);
      } else {
        throw std::invalid_argument(
            "the pull stream mode requires broadcast-only communication");
      }
    }
    return drive(push_, pull_, f);
  }

  /// Runs `f` on `engine` (built on first use; the other mode's engine is
  /// released so one set of mailboxes is resident) and keeps its values.
  template <typename E, typename Other, typename F>
  auto drive(std::optional<E>& engine, std::optional<Other>& other, F& f) {
    other.reset();
    if (!engine) {
      engine.emplace(graph_, program_, options_);
    }
    auto result = f(*engine);
    values_.assign(engine->values().begin(), engine->values().end());
    return result;
  }

  PagedGraph& graph_;
  Program program_;
  PagedRunOptions options_;
  std::optional<PullEngine> pull_;
  std::optional<PushEngine> push_;
  std::vector<Value> values_;
};

}  // namespace ipregel::store
