#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "ft/checkpoint_contract.hpp"
#include "ft/supervisor.hpp"
#include "graph/csr.hpp"
#include "runtime/memory_tracker.hpp"
#include "runtime/timer.hpp"
#include "service/degradation.hpp"
#include "service/job.hpp"
#include "service/shed.hpp"

namespace ipregel::service {

/// A multi-job admission-controlled service on top of the single-run
/// engine: accepts concurrent graph jobs, bounds what the node takes on
/// (queue depth, a global memory-reservation ledger), and under pressure
/// steps down policies in a recorded ladder instead of letting the
/// machine OOM or deadlock. Failures inside a job stay inside the job:
/// execution goes through ft::supervise, so an injected fault retries
/// from the newest checkpoint exactly as it would solo, and every
/// abnormal end is typed (RunError for runs, ShedReason for sheds).
class JobManager {
 public:
  struct Config {
    /// Concurrently running jobs (executor threads).
    std::size_t executors = 2;
    /// Full-strength thread team per job; the first degradation rung
    /// halves it. 0 = hardware concurrency.
    std::size_t team_threads = 2;
    /// Bound on *queued* (admitted, not yet running) jobs.
    std::size_t max_queue_depth = 8;
    /// Global memory-reservation budget the admission ledger carves
    /// per-job reservations from. 0 = unlimited (ledger still tracked).
    std::size_t memory_budget_bytes = 0;
    /// Reserved/budget fraction at which the ladder's first rung (shrink
    /// the thread team) engages for newly started jobs.
    double memory_pressure = 0.75;
    /// Reserved/budget fraction at which heavyweight checkpoints are
    /// downgraded to lightweight (second rung).
    double memory_pressure_severe = 0.90;
    /// Fraction of a job's deadline it may burn in the queue before its
    /// checkpoints are downgraded to claw back superstep time.
    double deadline_pressure = 0.5;
  };

  struct Stats {
    std::size_t submitted = 0;  ///< submit() calls, admitted or not
    std::size_t admitted = 0;
    std::size_t rejected = 0;   ///< admission-time ShedErrors
    std::size_t shed = 0;       ///< admitted but never ran (typed reason)
    std::size_t completed = 0;
    std::size_t failed = 0;     ///< ran, typed RunError after retries
    std::size_t max_queue_depth_seen = 0;
    std::size_t reserved_bytes = 0;       ///< current ledger
    std::size_t peak_reserved_bytes = 0;  ///< ledger high-water mark
  };

  JobManager();
  explicit JobManager(Config config);
  /// Graceful: stops intake, sheds what is still queued (kShutdown), and
  /// joins the executors after their current jobs finish.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Submits a job. Admission control runs here, synchronously: a bounded
  /// queue-depth check and the memory-reservation ledger, each of which
  /// may first evict strictly lower-priority queued jobs (the ladder's
  /// kShedQueued rung) and then, if still over, throws a typed ShedError.
  /// On admission the reservation is held until the job leaves the system.
  ///
  /// `options` are the job's own engine options; the manager overlays the
  /// degradation ladder (threads, checkpoint mode) and the failure-domain
  /// guards (deadline watchdog, cancel token, per-job memory budget) on
  /// top. `retry` drives ft::supervise, so a job with a checkpoint
  /// directory survives injected faults without the caller noticing.
  ///
  /// The job takes SHARED OWNERSHIP of the graph: the submit() caller may
  /// drop its own reference the moment this returns, and the graph stays
  /// alive until the job leaves the system (completed, failed, or shed).
  /// query::GraphEpoch rides this directly — graph_of(epoch) is an
  /// aliasing pointer whose control block pins the whole epoch, so an
  /// epoch swapped out of the registry mid-run is freed only after its
  /// last in-flight job drains.
  template <VertexProgram Program>
  JobTicket<Program> submit(std::shared_ptr<const graph::CsrGraph> graph,
                            Program program, VersionId version,
                            EngineOptions options = {}, JobSpec spec = {},
                            ft::RetryPolicy retry = {}) {
    auto state = std::make_shared<detail::TypedJobState<Program>>();
    if (spec.memory_reservation_bytes == 0) {
      spec.memory_reservation_bytes = estimate_reservation<Program>(*graph);
    }
    PendingJob job;
    job.spec = spec;
    job.reserved_bytes = spec.memory_reservation_bytes;
    job.state = state;
    job.execute = [graph = std::move(graph), program = std::move(program),
                   version, options,
                   retry](detail::JobStateBase& base, const ExecPlan& plan,
                          JobReport& report) {
      auto& typed = static_cast<detail::TypedJobState<Program>&>(base);
      EngineOptions opts = options;
      opts.threads = plan.threads;
      opts.guards.cancel_token = &base.cancel;
      if (plan.run_seconds > 0.0) {
        opts.guards.run_seconds =
            opts.guards.run_seconds > 0.0
                ? std::min(opts.guards.run_seconds, plan.run_seconds)
                : plan.run_seconds;
      }
      if (plan.memory_budget_bytes != 0) {
        opts.guards.memory_budget_bytes = plan.memory_budget_bytes;
      }
      if (plan.downgrade_checkpoint && opts.checkpoint.enabled() &&
          opts.checkpoint.mode == ft::CheckpointMode::kHeavyweight) {
        // Only a downgrade the engine will accept is requested.
        if constexpr (ft::kLightweightCapable<Program>) {
          opts.checkpoint.mode = ft::CheckpointMode::kLightweight;
          report.checkpoint_downgraded = true;
        }
      }
      const ft::SupervisedOutcome out = ft::supervise(
          *graph, program, version, opts, retry, nullptr, &typed.values);
      report.attempts = out.attempts;
      report.resumed_from_snapshot = out.resumed_from_snapshot;
      report.integrity_violations = out.integrity_violations;
      report.snapshots_quarantined = out.snapshots_quarantined;
      if (out.ok()) {
        report.state = JobState::kCompleted;
        report.result = out.result;
      } else {
        report.state = JobState::kFailed;
        report.error = out.error;
      }
    };
    admit(std::move(job));  // throws ShedError on rejection
    return JobTicket<Program>(std::move(state));
  }

  /// Borrowed-graph convenience overload: the CALLER guarantees `graph`
  /// outlives the job (ticket waited or manager shut down first). This
  /// used to be the only entry point — a job held a bare reference, so a
  /// caller that released the graph while the job was still queued left a
  /// dangling reference the executor would chase. Internally this wraps
  /// the reference in a non-owning aliasing shared_ptr and delegates, so
  /// there is exactly one execution path; callers who cannot prove the
  /// lifetime should pass a shared_ptr (or publish through
  /// query::GraphRegistry) instead.
  template <VertexProgram Program>
  JobTicket<Program> submit(const graph::CsrGraph& graph, Program program,
                            VersionId version, EngineOptions options = {},
                            JobSpec spec = {}, ft::RetryPolicy retry = {}) {
    return submit(
        std::shared_ptr<const graph::CsrGraph>(std::shared_ptr<void>{},
                                               &graph),
        std::move(program), version, std::move(options), std::move(spec),
        std::move(retry));
  }

  /// Cancels a job: a queued job is shed (kCancelled) immediately; a
  /// running job's cancel token is raised and it fails with
  /// RunErrorKind::kCancelled at its next guard tick. Returns false when
  /// the id is unknown or already finished.
  bool cancel(std::uint64_t job_id);

  /// Stops intake, sheds everything still queued (kShutdown), and joins
  /// the executors once their current jobs finish. Idempotent; called by
  /// the destructor.
  void shutdown();

  /// External-pressure relief valve: sheds the least important queued job
  /// (kPriorityEvicted, recorded on the degradation log as kShedQueued
  /// with `detail`). Returns false when nothing is queued. The paged
  /// store's cache points its rung-3 callback here, so sustained paging
  /// thrash relieves pressure through the same audited ladder admission
  /// control uses, instead of silently overrunning memory.
  bool shed_weakest_queued(const std::string& detail);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const DegradationLog& degradation_log() const noexcept {
    return log_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Conservative (deliberately high) per-job reservation estimate from
  /// the graph's shape: per-slot values, internals, double-buffered
  /// mailboxes with the heaviest lock variant, frontier, and checkpoint
  /// staging, plus a fixed overhead floor.
  template <typename Program>
  [[nodiscard]] static std::size_t estimate_reservation(
      const graph::CsrGraph& g) noexcept {
    using V = typename Program::value_type;
    using M = typename Program::message_type;
    const std::size_t slots = g.num_slots();
    return slots * (2 * sizeof(V) + 3 * sizeof(M) + 64) + (1u << 16);
  }

 private:
  /// What the executor decided this job actually runs with.
  struct ExecPlan {
    std::size_t threads = 1;
    bool downgrade_checkpoint = false;
    double run_seconds = 0.0;           ///< remaining deadline; 0 = none
    std::size_t memory_budget_bytes = 0;  ///< per-job guard; 0 = off
  };

  using ExecuteFn = std::function<void(detail::JobStateBase&,
                                       const ExecPlan&, JobReport&)>;

  struct PendingJob {
    std::uint64_t id = 0;
    JobSpec spec;
    std::size_t reserved_bytes = 0;
    std::chrono::steady_clock::time_point submitted_at;
    std::shared_ptr<detail::JobStateBase> state;
    ExecuteFn execute;
  };

  void admit(PendingJob&& job);
  void executor_loop();
  /// Pops the best queued job (highest priority, FIFO within a priority).
  /// Caller holds mu_.
  [[nodiscard]] PendingJob pop_best_locked();
  /// Index of the least important queued job (lowest priority, newest
  /// within it), or npos when empty. Caller holds mu_.
  [[nodiscard]] std::size_t weakest_locked() const noexcept;
  /// Sheds queue_[index] with `reason`, releasing its reservation and
  /// finishing its state. Caller holds mu_.
  void shed_at_locked(std::size_t index, ShedReason reason);
  void release_reservation_locked(std::size_t bytes) noexcept;

  Config config_;
  DegradationLog log_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<PendingJob> queue_;
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<detail::JobStateBase>>
      running_;
  Stats stats_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;

  std::vector<std::thread> executors_;
};

}  // namespace ipregel::service
