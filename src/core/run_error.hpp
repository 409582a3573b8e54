#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ipregel {

// Forward-declared here so RunOutcome can embed the statistics struct that
// config.hpp (which includes this header) defines.
struct RunResult;

/// Why a run failed — the failure taxonomy of the engine's failure-domain
/// layer. Every abnormal termination of the superstep loop maps to exactly
/// one of these, so callers can branch on the *kind* of failure instead of
/// string-matching exception messages.
enum class RunErrorKind : std::uint8_t {
  /// Program::compute (or resend) threw. Deterministic for a deterministic
  /// program, so not retryable by default.
  kUserException,
  /// A ft::FaultPlan tripped — a simulated crash. Transient by
  /// construction (the plan is per-attempt), so retryable.
  kInjectedFault,
  /// One superstep exceeded EngineOptions::guards.superstep_seconds.
  kSuperstepTimeout,
  /// The whole run exceeded EngineOptions::guards.run_seconds.
  kRunTimeout,
  /// Tracked framework memory exceeded
  /// EngineOptions::guards.memory_budget_bytes — the shared-memory analogue
  /// of the Pregel+ cluster's out_of_memory marker (Fig. 8).
  kMemoryBudget,
  /// The caller raised EngineOptions::guards.cancel_token — a cooperative
  /// external kill switch (the serving layer routes job cancellation and
  /// shutdown through it). Observed at vertex-boundary guard ticks and at
  /// the superstep barrier, like the watchdogs.
  kCancelled,
  /// An integrity detector (EngineOptions::integrity — invariant audit,
  /// sectioned checksum, or shadow recompute) caught silently corrupted
  /// state at a superstep barrier. The message localises the violation to
  /// a superstep, a state section, and a vertex/slot range. Memory
  /// corruption is transient by nature, so this is retryable: the
  /// supervisor restores the newest snapshot that passes re-validation.
  kIntegrityViolation,
  /// A resume was asked to restore a snapshot that does not belong to this
  /// (graph, program, version) binding — wrong application fingerprint,
  /// wrong value/message layout, wrong graph, or an incompatible mailbox
  /// shape. The bytes were never reinterpreted; nothing was restored.
  /// Deterministic (the same snapshot will mismatch again), so never
  /// retryable.
  kSnapshotMismatch,
  /// A sharded multi-process run (src/shard) lost a worker beyond what the
  /// shard::Supervisor could repair: the respawn budget ran out, or a
  /// respawned shard resumed too far behind the barrier for the survivors'
  /// retained message logs to replay it forward. The coordinator killed
  /// the remaining workers and aborted the job. Not retryable at this
  /// level — per-shard retries already happened inside the run.
  kShardFailure,
  /// The beyond-RAM paged store (src/store) could not serve an edge page:
  /// the page failed its CRC seal or read after the bounded retry budget,
  /// the store file's superblock was invalid, or the backing filesystem
  /// lost power mid-read. The streaming runner unwinds the superstep and
  /// surfaces the store::PageError detail. Retryable when the underlying
  /// page fault was transient (the retry-then-quarantine ladder already
  /// distinguishes that; what reaches this level recurs), so not
  /// retryable by default.
  kPageError,
  /// A sharded run's coordinator incarnation discovered it is STALE: a
  /// newer incarnation holds the fencing epoch, and a worker rejected its
  /// HELLO/adoption attempt with the newer epoch. The stale incarnation
  /// stepped down without committing a barrier or killing any worker —
  /// split-brain is structurally impossible, and this error is how the
  /// loser reports it. Never retryable: the run is owned by someone newer.
  kCoordinatorFenced,
};

[[nodiscard]] constexpr std::string_view to_string(RunErrorKind k) noexcept {
  switch (k) {
    case RunErrorKind::kUserException:
      return "user-exception";
    case RunErrorKind::kInjectedFault:
      return "injected-fault";
    case RunErrorKind::kSuperstepTimeout:
      return "superstep-timeout";
    case RunErrorKind::kRunTimeout:
      return "run-timeout";
    case RunErrorKind::kMemoryBudget:
      return "memory-budget";
    case RunErrorKind::kCancelled:
      return "cancelled";
    case RunErrorKind::kIntegrityViolation:
      return "integrity-violation";
    case RunErrorKind::kSnapshotMismatch:
      return "snapshot-mismatch";
    case RunErrorKind::kShardFailure:
      return "shard-failure";
    case RunErrorKind::kPageError:
      return "page-error";
    case RunErrorKind::kCoordinatorFenced:
      return "coordinator-fenced";
  }
  return "invalid";
}

/// A structured run failure: what went wrong (kind), where (superstep,
/// thread, and — for compute failures — the vertex whose compute threw),
/// and the underlying detail message.
///
/// Thrown by Engine::run / run_from and translated into a RunOutcome by the
/// *_checked entry points. After a RunError the engine object is still
/// valid: vertex values may be torn (the failing superstep was abandoned
/// mid-flight, like a crash), but a fresh run() fully reinitialises state
/// and run_from() restores a snapshot — the strong guarantee holds at
/// superstep granularity, not mid-superstep.
class RunError : public std::runtime_error {
 public:
  /// Sentinel for failures with no single responsible vertex (watchdog,
  /// budget, injected fault).
  static constexpr std::uint64_t kNoVertex =
      static_cast<std::uint64_t>(-1);

  RunError(RunErrorKind kind, std::size_t superstep, std::size_t thread,
           std::uint64_t vertex, const std::string& detail)
      : std::runtime_error(format(kind, superstep, thread, vertex, detail)),
        kind_(kind),
        superstep_(superstep),
        thread_(thread),
        vertex_(vertex),
        detail_(detail) {}

  [[nodiscard]] RunErrorKind kind() const noexcept { return kind_; }
  /// Superstep in flight (or about to start) when the failure surfaced.
  [[nodiscard]] std::size_t superstep() const noexcept { return superstep_; }
  /// Team thread id that raised the failure (0 for barrier-side checks).
  [[nodiscard]] std::size_t thread() const noexcept { return thread_; }
  [[nodiscard]] bool has_vertex() const noexcept {
    return vertex_ != kNoVertex;
  }
  /// External id of the vertex whose compute threw (kUserException only).
  [[nodiscard]] std::uint64_t vertex() const noexcept { return vertex_; }
  /// The underlying message, without the kind/superstep/thread/vertex
  /// prefix what() adds: what a RunError must be rebuilt from elsewhere
  /// (the shard result pipe) so that its what() comes out the same.
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

  /// Whether retrying the run (from the latest checkpoint) can plausibly
  /// succeed without any change of configuration: true for simulated
  /// crashes and for detected memory corruption (both transient by
  /// nature). Deterministic failures (user exceptions, budget breaches,
  /// snapshot mismatches) would recur; ft::RetryPolicy can widen this
  /// per-kind.
  [[nodiscard]] bool retryable() const noexcept {
    return kind_ == RunErrorKind::kInjectedFault ||
           kind_ == RunErrorKind::kIntegrityViolation;
  }

 private:
  [[nodiscard]] static std::string format(RunErrorKind kind,
                                          std::size_t superstep,
                                          std::size_t thread,
                                          std::uint64_t vertex,
                                          const std::string& detail) {
    std::string out = "[";
    out += to_string(kind);
    out += "] superstep " + std::to_string(superstep) + ", thread " +
           std::to_string(thread);
    if (vertex != kNoVertex) {
      out += ", vertex " + std::to_string(vertex);
    }
    out += ": " + detail;
    return out;
  }

  RunErrorKind kind_;
  std::size_t superstep_;
  std::size_t thread_;
  std::uint64_t vertex_;
  std::string detail_;
};

/// Watchdog and budget limits for a run; all disabled (0) by default, so
/// the guards cost one branch per check site when unused.
struct RunGuards {
  /// Wall-clock ceiling for a single superstep. Checked cooperatively at
  /// vertex boundaries (every thread, every 64 vertices) and at the
  /// superstep barrier from thread 0 — a superstep that retires vertices
  /// is interrupted promptly; one stuck inside a single compute call is
  /// only detected once that call returns.
  double superstep_seconds = 0.0;
  /// Wall-clock ceiling for the whole run (all supersteps).
  double run_seconds = 0.0;
  /// Ceiling on tracked framework bytes, enforced at run start and at
  /// every superstep barrier. Compared against the calling thread's active
  /// runtime::MemoryScope when one is installed (per-job accounting —
  /// concurrent jobs cannot trip each other's budget), otherwise against
  /// the process-wide MemoryTracker total.
  std::size_t memory_budget_bytes = 0;
  /// Cooperative cancel token (not owned; may be null). When the pointee
  /// becomes true the run unwinds at the next guard tick or barrier and
  /// fails with RunErrorKind::kCancelled. The serving layer points this at
  /// the job's cancel flag so external cancellation and shutdown ride the
  /// same machinery as the watchdogs.
  const std::atomic<bool>* cancel_token = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return superstep_seconds > 0.0 || run_seconds > 0.0 ||
           memory_budget_bytes != 0 || cancel_token != nullptr;
  }
};

}  // namespace ipregel
