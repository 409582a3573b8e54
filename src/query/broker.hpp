#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "query/epoch.hpp"
#include "query/point_query.hpp"
#include "query/result_cache.hpp"
#include "service/job_manager.hpp"

namespace ipregel::query {

namespace detail {

/// Completion state shared between the broker and a QueryTicket — the
/// same wait pattern as service::detail::JobStateBase, scoped to one
/// point query.
struct QueryState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryResult result;

  void fulfil(QueryResult r) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
  }

  const QueryResult& wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return result;
  }
};

}  // namespace detail

/// The caller's handle to a submitted point query. Copyable (shared
/// state); wait() blocks until the query resolves (answered, shed, or
/// failed — every admitted query resolves exactly once).
class QueryTicket {
 public:
  explicit QueryTicket(std::shared_ptr<detail::QueryState> state) noexcept
      : state_(std::move(state)) {}

  const QueryResult& wait() { return state_->wait(); }

 private:
  std::shared_ptr<detail::QueryState> state_;
};

/// Coalesces point queries into batched engine runs.
///
/// Mechanic: queries of the same engine family (BFS-family kinds share
/// apps::MultiBfs, kPpr uses apps::MultiPpr) against the same pinned
/// epoch are packed into the lanes of ONE engine run — a batch of k
/// queries costs one graph scan per superstep instead of k, which is
/// where the service's throughput win comes from. A dispatcher takes the
/// oldest pending query, lingers up to `max_linger_seconds` for
/// compatible companions (bounded latency cost), packs up to `max_batch`
/// lanes, and submits a single job through the PR-4 JobManager — so
/// admission control, the memory ledger, deadlines, and the degradation
/// ladder all apply to query traffic unchanged.
///
/// Within a batch, queries that need the same computation share a lane:
/// BFS-family queries from the same source (a popular vertex queried
/// against many different targets) and PPR queries over the same seed
/// set ride one lane and extract their own answers from it. Hot-source
/// traffic therefore costs one lane per distinct source, not per query.
///
/// Each query pins the epoch that was current at submit time. A reload
/// between submit and dispatch does not retarget the query: it runs
/// against its pinned epoch (the aliasing graph_of pointer keeps it
/// resident), and only the cache refuses to store the now-stale answer.
class QueryBroker {
 public:
  /// Hard lane ceiling (the largest MultiBfs/MultiPpr instantiation the
  /// dispatcher is compiled with).
  static constexpr std::size_t kMaxLanes = 8;

  struct Config {
    /// Lanes per engine run; clamped to kMaxLanes. 1 disables batching
    /// (the ablation baseline).
    std::size_t max_batch = kMaxLanes;
    /// How long the dispatcher holds the oldest query waiting for
    /// batch-compatible companions. The service's latency floor under
    /// light load, so keep it small relative to an engine run.
    double max_linger_seconds = 0.002;
    /// Bound on queries accepted but not yet dispatched; submit() throws
    /// ShedError(kQueueFull) beyond it.
    std::size_t max_pending = 4096;
    /// Dispatcher threads. Each blocks on its batch's engine run, so this
    /// is also the bound on engine runs in flight from query traffic.
    std::size_t dispatchers = 2;

    /// PPR service parameters — service-wide so any two PPR queries stay
    /// batch-compatible (a per-query rounds knob would fragment batches).
    std::size_t ppr_rounds = 20;
    double ppr_damping = 0.85;

    /// Serve repeat queries from the result cache (lookup at submit,
    /// insert after a completed run while the epoch is still current).
    bool enable_cache = true;
  };

  struct Stats {
    std::size_t submitted = 0;   ///< accepted submit() calls
    std::size_t cache_hits = 0;  ///< resolved at submit without a run
    std::size_t completed = 0;
    std::size_t shed = 0;    ///< resolved kShed (deadline, ladder, ...)
    std::size_t failed = 0;  ///< resolved kFailed
    std::size_t batches = 0;  ///< engine runs dispatched
    std::size_t lanes = 0;    ///< queries those runs served (occupancy
                              ///< = lanes / batches)
    /// Lanes actually computed: members of one batch that ask about the
    /// same source (BFS family) or the same seed set (PPR) share a lane,
    /// so engine_lanes <= lanes. lanes - engine_lanes = queries answered
    /// by a shared lane without their own computation.
    std::size_t engine_lanes = 0;
    std::size_t max_pending_seen = 0;
  };

  /// The broker borrows the registry, manager, and cache (the
  /// QueryService facade owns them and outlives it). `cache` may be null
  /// (equivalent to enable_cache = false).
  QueryBroker(GraphRegistry& registry, service::JobManager& jobs,
              ResultCache* cache);
  QueryBroker(GraphRegistry& registry, service::JobManager& jobs,
              ResultCache* cache, Config config);
  ~QueryBroker();

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// Admits a point query against the current epoch. Resolves immediately
  /// on a cache hit; otherwise the query is queued for batching. Throws
  /// ShedError(kQueueFull) when the pending bound is hit, and
  /// std::logic_error when no epoch has been published yet.
  QueryTicket submit(PointQuery q);

  /// Stops intake, sheds pending queries (kShutdown), joins dispatchers.
  /// Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct Pending {
    PointQuery query;
    std::uint64_t key = 0;
    EpochPtr epoch;
    std::chrono::steady_clock::time_point enqueued_at;
    /// steady_clock::time_point::max() when the query has no deadline.
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<detail::QueryState> state;
  };

  void dispatcher_loop();
  /// Runs one batch to completion and resolves every member. All entries
  /// are family- and epoch-compatible; batch.size() <= max_batch.
  void dispatch(std::vector<Pending> batch);
  void resolve(Pending& p, QueryResult r);
  [[nodiscard]] static bool compatible(const Pending& a,
                                       const Pending& b) noexcept {
    return a.epoch == b.epoch &&
           is_bfs_family(a.query.kind) == is_bfs_family(b.query.kind);
  }

  /// lane_of[i] is the engine lane batch[i] reads its answer from;
  /// rep[l] indexes the batch member whose source/seeds define lane l.
  /// K >= rep.size() (spare lanes are padded).
  template <std::size_t K>
  void run_bfs_batch(std::vector<Pending>& batch,
                     const std::vector<std::size_t>& lane_of,
                     const std::vector<std::size_t>& rep);
  template <std::size_t K>
  void run_ppr_batch(std::vector<Pending>& batch,
                     const std::vector<std::size_t>& lane_of,
                     const std::vector<std::size_t>& rep);

  GraphRegistry& registry_;
  service::JobManager& jobs_;
  ResultCache* cache_;
  Config config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Pending> pending_;
  Stats stats_;
  bool stopping_ = false;

  std::vector<std::thread> dispatchers_;
};

}  // namespace ipregel::query
