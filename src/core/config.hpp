#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/run_error.hpp"
#include "ft/checkpoint.hpp"
#include "ft/fault.hpp"
#include "integrity/fault.hpp"
#include "integrity/options.hpp"

namespace ipregel {

/// The combiner module versions of the paper's Fig. 2 / section 6.
enum class CombinerKind {
  /// Push-based combiner, block-waiting synchronisation: one 40-byte
  /// std::mutex per vertex mailbox.
  kMutexPush,
  /// Push-based combiner, busy-waiting synchronisation: one 4-byte spinlock
  /// per vertex mailbox (90% lighter data-race protection).
  kSpinlockPush,
  /// Pull-based combiner ("broadcast" version): senders buffer a single
  /// outbox value, receivers gather from in-neighbours. Race-free, zero
  /// lock memory; requires broadcast-only communication and in-neighbour
  /// lists.
  kPull,
};

[[nodiscard]] constexpr std::string_view to_string(CombinerKind k) noexcept {
  switch (k) {
    case CombinerKind::kMutexPush:
      return "mutex";
    case CombinerKind::kSpinlockPush:
      return "spinlock";
    case CombinerKind::kPull:
      return "broadcast";
  }
  return "invalid";
}

/// The direction a superstep's messages travel in. Push delivers into the
/// recipient's mailbox (sections 6.1/6.3); pull arms the sender's own
/// outbox, which the recipients gather from at the next superstep (6.2).
enum class Direction : std::uint8_t { kPush, kPull };

[[nodiscard]] constexpr std::string_view to_string(Direction d) noexcept {
  return d == Direction::kPull ? "pull" : "push";
}

/// One of the six framework versions of section 7.2: a combiner choice,
/// optionally paired with the selection bypass of section 4.
struct VersionId {
  CombinerKind combiner = CombinerKind::kSpinlockPush;
  bool selection_bypass = false;

  friend bool operator==(const VersionId&, const VersionId&) = default;
};

/// All six versions, in the paper's Fig. 7 legend order.
inline constexpr VersionId kAllVersions[] = {
    {CombinerKind::kMutexPush, false},    {CombinerKind::kMutexPush, true},
    {CombinerKind::kSpinlockPush, false}, {CombinerKind::kSpinlockPush, true},
    {CombinerKind::kPull, false},         {CombinerKind::kPull, true},
};

/// Human-readable version name matching the paper's legends, e.g.
/// "spinlock with selection bypass".
[[nodiscard]] inline std::string_view version_name(VersionId v) noexcept {
  switch (v.combiner) {
    case CombinerKind::kMutexPush:
      return v.selection_bypass ? "mutex with selection bypass" : "mutex";
    case CombinerKind::kSpinlockPush:
      return v.selection_bypass ? "spinlock with selection bypass"
                                : "spinlock";
    case CombinerKind::kPull:
      return v.selection_bypass ? "broadcast with selection bypass"
                                : "broadcast";
  }
  return "invalid";
}

/// How vertices are distributed across threads within a superstep.
enum class Schedule {
  /// Equal contiguous shares (the paper's distribution): zero scheduling
  /// overhead, perfect when per-vertex work is uniform — which the
  /// selection bypass guarantees by shipping only active vertices.
  kStatic,
  /// Chunks claimed from a shared cursor: one atomic per chunk, but
  /// rebalances skewed work (hub vertices of scale-free graphs). The
  /// "further investigations about load-balancing strategies" of the
  /// paper's conclusion.
  kDynamic,
};

/// Engine options common to all versions.
struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency. Ignored when an external
  /// pool is supplied to the engine.
  std::size_t threads = 0;
  /// Safety cap on supersteps (the BSP loop stops even if the computation
  /// has not converged). SIZE_MAX = unlimited.
  std::size_t max_supersteps = static_cast<std::size_t>(-1);
  /// Record per-superstep statistics (active count, messages, seconds) in
  /// the RunResult. Costs one small allocation per superstep.
  bool collect_superstep_stats = false;
  /// Vertex-to-thread scheduling policy.
  Schedule schedule = Schedule::kStatic;
  /// Chunk size for Schedule::kDynamic (ignored under kStatic).
  std::size_t dynamic_chunk = 2048;
  /// Superstep-boundary checkpointing (off by default — zero overhead).
  ft::CheckpointPolicy checkpoint{};
  /// Deterministic crash injection for fault-tolerance tests and benches
  /// (disarmed by default).
  ft::FaultPlan fault{};
  /// Silent-data-corruption detectors evaluated at superstep barriers
  /// (all off by default — see integrity/options.hpp for the tiers).
  integrity::IntegrityOptions integrity{};
  /// Deterministic single-bit corruption injection, the SDC counterpart of
  /// `fault` (disarmed by default). Applied by the engine at the planned
  /// superstep's barrier points, where state is quiescent.
  integrity::FlipPlan flip{};
  /// Failure-domain guards: superstep/run watchdog timeouts and the
  /// tracked-memory budget (all disabled by default).
  RunGuards guards{};
  /// Pins a push combiner with the selection bypass to push on every
  /// superstep: the paper's fixed version, as its Fig. 7 measures it. When
  /// false, such an engine running a broadcast-only program on a graph
  /// with in-edges picks each superstep's direction at the barrier before
  /// it: push while the previous superstep sent few messages, pull once it
  /// sent many (direction optimisation; DESIGN.md §17). Ignored by every
  /// other version.
  bool fixed_direction = false;
};

/// Per-superstep execution record.
struct SuperstepStats {
  std::size_t executed_vertices = 0;  ///< vertices whose compute ran
  std::size_t remaining_active = 0;   ///< vertices that did not vote to halt
  std::size_t messages_sent = 0;      ///< send/broadcast message deliveries
  double seconds = 0.0;
  Direction direction = Direction::kPush;  ///< how those messages travelled
};

/// Result of Engine::run. Timings cover the superstep loop only, matching
/// the paper's methodology ("graph preprocessing and graph loading are not
/// included", section 7.1.2).
struct RunResult {
  std::size_t supersteps = 0;
  double seconds = 0.0;
  std::size_t total_messages = 0;
  std::size_t total_executed_vertices = 0;
  bool reached_superstep_cap = false;
  /// Snapshots written by this run's checkpoint policy, and the wall time
  /// they cost (capture + serialise + fsync + atomic rename + parent-
  /// directory fsync) — the numerator of the checkpoint-overhead ablation.
  std::size_t checkpoints_written = 0;
  /// Checkpoints that were due but hit a disk error (ENOSPC, EIO) while
  /// being written. The run continues — losing one checkpoint costs
  /// recomputation, not correctness — and retries at the next trigger.
  std::size_t checkpoints_skipped = 0;
  double checkpoint_seconds = 0.0;
  std::vector<SuperstepStats> per_superstep;  ///< empty unless requested
};

/// The typed result of a checked run: either a RunResult (ok()) or a
/// structured RunError describing the failure. Engine::run_checked,
/// run_version_checked, and ft::supervise return this instead of throwing,
/// so call sites handle failure as data — the superstep loop's analogue of
/// the Pregel+ cluster result carrying its out_of_memory marker.
struct RunOutcome {
  /// Valid only when ok(); zero-initialised on failure (the failing run's
  /// partial statistics die with its abandoned superstep).
  RunResult result{};
  std::optional<RunError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

}  // namespace ipregel
