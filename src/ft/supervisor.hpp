#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "ft/fault.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "integrity/fault.hpp"

namespace ipregel::ft {

/// Semantic snapshot validation for verified recovery: replays the
/// program's per-vertex value audit (program_traits' HasValueAudit hook)
/// over a structurally-valid snapshot's value section. This catches
/// corruption that predates the checkpoint — a bit flipped in memory and
/// then faithfully CRC'd onto disk — which no amount of file-level
/// checking can see. Returns nullptr when the snapshot passes (or the
/// program declares no value audit); a static reason string otherwise.
/// Shape mismatches are NOT judged here: the engine's restore_state turns
/// those into typed SnapshotMismatch rejections.
template <VertexProgram Program>
[[nodiscard]] const char* audit_snapshot_values(
    const Program& program, const graph::CsrGraph& graph,
    const EngineSnapshot& snap) {
  using Value = typename Program::value_type;
  if constexpr (!HasValueAudit<Program> ||
                !std::is_trivially_copyable_v<Value>) {
    (void)program;
    (void)graph;
    (void)snap;
    return nullptr;
  } else {
    if (snap.meta.value_size != sizeof(Value) ||
        snap.meta.num_slots != graph.num_slots() ||
        snap.values.size() != graph.num_slots() * sizeof(Value)) {
      return nullptr;  // leave shape rejection to the engine's typed path
    }
    for (std::size_t slot = graph.first_slot(); slot < graph.num_slots();
         ++slot) {
      Value v;
      std::memcpy(&v, snap.values.data() + slot * sizeof(Value),
                  sizeof(Value));
      const char* why =
          program.audit_value(graph.id_of(slot), v, graph.num_vertices());
      if (why != nullptr) {
        return why;
      }
    }
    return nullptr;
  }
}

/// When and how often ft::supervise retries a failed run.
struct RetryPolicy {
  /// Total attempts, including the first (>= 1). Exhausting the budget
  /// returns the last failure instead of retrying forever.
  std::size_t max_attempts = 3;

  /// Exponential backoff between attempts: sleep `backoff_initial_seconds`
  /// before the first retry, multiply by `backoff_multiplier` after each,
  /// cap at `backoff_max_seconds`. Zero initial backoff disables sleeping
  /// (what deterministic tests use).
  double backoff_initial_seconds = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 5.0;

  /// Widen the retryable set beyond injected faults. Deterministic
  /// failures recur on retry, so both default to off; timeouts are worth
  /// retrying when the cause may be transient (a noisy co-tenant, a cold
  /// page cache), user exceptions almost never are.
  bool retry_timeouts = false;
  bool retry_user_exceptions = false;

  /// Per-attempt injected faults for deterministic supervisor tests and
  /// benches: attempt k runs under fault_schedule[k] (disarmed once the
  /// schedule is exhausted). When empty, the caller's options.fault is
  /// honoured on the FIRST attempt only — a fixed armed plan would
  /// otherwise re-trip on every retry and the supervisor could never win.
  std::vector<FaultPlan> fault_schedule;

  /// Per-attempt bit-flip plans, the SDC mirror of fault_schedule: attempt
  /// k runs under flip_schedule[k] (disarmed once exhausted). When empty,
  /// the caller's options.flip is honoured on the FIRST attempt only —
  /// same livelock argument as above, since a detected flip would re-trip
  /// the detectors on every retry.
  std::vector<integrity::FlipPlan> flip_schedule;

  [[nodiscard]] bool should_retry(const RunError& e) const noexcept {
    switch (e.kind()) {
      case RunErrorKind::kInjectedFault:
        return true;
      case RunErrorKind::kUserException:
        return retry_user_exceptions;
      case RunErrorKind::kSuperstepTimeout:
      case RunErrorKind::kRunTimeout:
        return retry_timeouts;
      case RunErrorKind::kMemoryBudget:
        return false;  // the budget does not grow back by itself
      case RunErrorKind::kCancelled:
        return false;  // the caller asked the run to stop; honour it
      case RunErrorKind::kIntegrityViolation:
        return true;  // memory corruption is transient; restore and retry
      case RunErrorKind::kSnapshotMismatch:
        return false;  // the same snapshot will mismatch again
      case RunErrorKind::kShardFailure:
        // The shard coordinator already ran its own respawn ladder
        // (shard::ShardSupervisor); a failure that reaches here exhausted
        // it, and this in-process supervisor cannot do better.
        return false;
      case RunErrorKind::kPageError:
        // The page cache already spent its bounded retries (and a CRC
        // failure its quarantine-and-refetch) before surfacing this; a
        // whole-run retry against the same damaged store would spin.
        return false;
      case RunErrorKind::kCoordinatorFenced:
        // The run is owned by a newer coordinator incarnation; retrying
        // the loser would just be fenced again.
        return false;
    }
    return false;
  }
};

/// What a supervised run did on top of its RunOutcome: how many attempts
/// it took, how many of them resumed from a snapshot instead of starting
/// at superstep 0, and how long it slept backing off.
struct SupervisedOutcome {
  /// Statistics of the final successful attempt (see RunResult's note on
  /// run_from: `supersteps` is cumulative). Zero-initialised on failure.
  RunResult result{};
  /// Set when every attempt failed; the LAST failure (earlier ones were
  /// retried away by definition).
  std::optional<RunError> error;
  std::size_t attempts = 0;
  /// Attempts that restored a checkpoint (including attempt 0 picking up a
  /// snapshot a previous process left behind — crash-restart).
  std::size_t resumed_from_snapshot = 0;
  /// Snapshots that failed content validation during recovery and were
  /// quarantined (recovery then fell back to the next older candidate).
  std::size_t snapshots_quarantined = 0;
  /// Attempts that failed with a detected integrity violation (an SDC
  /// caught by a detector tier) before recovery or final failure.
  std::size_t integrity_violations = 0;
  double backoff_seconds = 0.0;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Supervised execution: run under `version`, and on a retryable failure
/// restore the newest checkpoint and try again, up to the policy's attempt
/// budget with exponential backoff.
///
/// This is the recovery loop that PR 1's snapshot subsystem was built for:
/// options.checkpoint paces the snapshots, the supervisor consumes them.
/// Every attempt constructs a fresh engine (a failed attempt's torn state
/// dies with it) and resumes from the checkpoint directory's newest valid
/// snapshot when one exists — so work is lost only back to the last
/// barrier snapshot, not to superstep 0, and a run that faults N times
/// finishes with values identical to an uninterrupted run (deterministic
/// programs; see tests/test_ft_supervisor.cpp for the exactness fine
/// print). Without a checkpoint directory the supervisor still retries,
/// just from scratch.
template <VertexProgram Program>
SupervisedOutcome supervise(
    const graph::CsrGraph& graph, Program program, VersionId version,
    EngineOptions options, RetryPolicy policy = {},
    runtime::ThreadPool* pool = nullptr,
    std::vector<typename Program::value_type>* out_values = nullptr) {
  SupervisedOutcome out;
  const std::size_t attempts = std::max<std::size_t>(1, policy.max_attempts);
  double backoff = policy.backoff_initial_seconds;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    EngineOptions attempt_options = options;
    if (!policy.fault_schedule.empty()) {
      attempt_options.fault = attempt < policy.fault_schedule.size()
                                  ? policy.fault_schedule[attempt]
                                  : FaultPlan{};
    } else if (attempt > 0) {
      attempt_options.fault = FaultPlan{};  // never re-trip a fixed plan
    }
    if (!policy.flip_schedule.empty()) {
      attempt_options.flip = attempt < policy.flip_schedule.size()
                                 ? policy.flip_schedule[attempt]
                                 : integrity::FlipPlan{};
    } else if (attempt > 0) {
      // Same livelock argument as faults: a fixed armed flip would be
      // re-injected (and re-detected) on every retry.
      attempt_options.flip = integrity::FlipPlan{};
    }

    // The newest usable snapshot, loaded once: the walk that validates it
    // hands the same bytes to the engine.
    std::optional<SnapshotDirectory::Loaded> resume;
    if (options.checkpoint.enabled()) {
      // Content-validating pick: a torn or corrupt newest snapshot is
      // quarantined and recovery degrades to the previous good one instead
      // of dying on a FormatError at resume time. When the integrity
      // invariant tier is on and the program declares a per-vertex value
      // audit, recovery additionally demands the snapshot's values pass it
      // — a *verified* recovery that refuses to resume from checkpointed
      // corruption.
      SnapshotDirectory snapshots(options.checkpoint.directory,
                                  options.checkpoint.basename,
                                  options.checkpoint.vfs,
                                  options.checkpoint.keep);
      SnapshotDirectory::Validator validator;
      if constexpr (HasValueAudit<Program>) {
        if (options.integrity.invariants) {
          validator = [&program, &graph](const EngineSnapshot& snap) {
            return audit_snapshot_values(program, graph, snap);
          };
        }
      }
      resume = snapshots.newest_valid(validator);
      out.snapshots_quarantined += snapshots.quarantined();
    }
    ++out.attempts;
    if (resume.has_value()) {
      ++out.resumed_from_snapshot;
    }

    RunOutcome attempt_outcome = run_version_checked(
        graph, program, version, attempt_options, pool, out_values,
        resume.has_value() ? &resume->snapshot : nullptr);
    if (attempt_outcome.ok()) {
      out.result = std::move(attempt_outcome.result);
      out.error.reset();
      return out;
    }
    out.error = std::move(attempt_outcome.error);
    if (out.error->kind() == RunErrorKind::kIntegrityViolation) {
      ++out.integrity_violations;
    }
    if (attempt + 1 >= attempts || !policy.should_retry(*out.error)) {
      return out;
    }
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      out.backoff_seconds += backoff;
      backoff = std::min(backoff * policy.backoff_multiplier,
                         policy.backoff_max_seconds);
    }
  }
  return out;
}

}  // namespace ipregel::ft
