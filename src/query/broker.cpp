#include "query/broker.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "apps/multi_bfs.hpp"
#include "apps/ppr.hpp"

namespace ipregel::query {

namespace {

using Clock = std::chrono::steady_clock;

/// Engine versions per family. BFS lanes always halt, so the selection
/// bypass applies and keeps supersteps proportional to the united
/// wavefronts; PPR runs every vertex every round (no bypass).
constexpr VersionId kBfsVersion{CombinerKind::kSpinlockPush, true};
constexpr VersionId kPprVersion{CombinerKind::kSpinlockPush, false};

/// True when `id` addresses a populated slot of `g` — the guard between
/// caller-supplied target ids and unchecked slot arithmetic.
[[nodiscard]] bool addressable(const graph::CsrGraph& g,
                               graph::vid_t id) noexcept {
  if (id < g.id_offset()) {
    return false;
  }
  const std::size_t slot = g.slot_of(id);
  return slot >= g.first_slot() && slot < g.num_slots();
}

[[nodiscard]] Clock::time_point deadline_of(const PointQuery& q,
                                            Clock::time_point from) {
  if (q.deadline_seconds <= 0.0) {
    return Clock::time_point::max();
  }
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(q.deadline_seconds));
}

[[nodiscard]] QueryResult shed_result(service::ShedReason reason) {
  QueryResult r;
  r.status = QueryResult::Status::kShed;
  r.shed_reason = reason;
  return r;
}

}  // namespace

QueryBroker::QueryBroker(GraphRegistry& registry,
                         service::JobManager& jobs, ResultCache* cache)
    : QueryBroker(registry, jobs, cache, Config{}) {}

QueryBroker::QueryBroker(GraphRegistry& registry,
                         service::JobManager& jobs, ResultCache* cache,
                         Config config)
    : registry_(registry), jobs_(jobs), cache_(cache), config_(config) {
  config_.max_batch = std::clamp<std::size_t>(config_.max_batch, 1,
                                              kMaxLanes);
  const std::size_t dispatchers = std::max<std::size_t>(
      1, config_.dispatchers);
  dispatchers_.reserve(dispatchers);
  for (std::size_t i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

QueryBroker::~QueryBroker() { shutdown(); }

QueryTicket QueryBroker::submit(PointQuery q) {
  const Clock::time_point now = Clock::now();
  EpochPtr epoch = registry_.current();
  if (epoch == nullptr) {
    throw std::logic_error(
        "QueryBroker::submit: no epoch published — publish a graph first");
  }
  const std::uint64_t key = query_key(q);
  auto state = std::make_shared<detail::QueryState>();

  if (config_.enable_cache && cache_ != nullptr) {
    if (std::optional<QueryResult> hit =
            cache_->lookup(epoch->fingerprint(), key)) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
          throw service::ShedError(service::ShedReason::kShutdown,
                                   "query broker is shut down");
        }
        ++stats_.submitted;
        ++stats_.cache_hits;
      }
      hit->from_cache = true;
      hit->batch_occupancy = 0;
      hit->latency_seconds =
          std::chrono::duration<double>(Clock::now() - now).count();
      state->fulfil(std::move(*hit));
      return QueryTicket(std::move(state));
    }
  }

  Pending p;
  p.query = std::move(q);
  p.key = key;
  p.epoch = std::move(epoch);
  p.enqueued_at = now;
  p.deadline = deadline_of(p.query, now);
  p.state = state;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw service::ShedError(service::ShedReason::kShutdown,
                               "query broker is shut down");
    }
    if (pending_.size() >= config_.max_pending) {
      throw service::ShedError(
          service::ShedReason::kQueueFull,
          "pending queries at bound " +
              std::to_string(config_.max_pending));
    }
    ++stats_.submitted;
    pending_.push_back(std::move(p));
    stats_.max_pending_seen =
        std::max(stats_.max_pending_seen, pending_.size());
  }
  // All dispatchers, not one: a waiter lingering for companions needs the
  // wake-up as much as an idle one.
  work_cv_.notify_all();
  return QueryTicket(std::move(state));
}

void QueryBroker::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : dispatchers_) {
    t.join();
  }
  dispatchers_.clear();
  // Dispatchers are gone; whatever is still pending will never run.
  std::deque<Pending> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(pending_);
  }
  for (Pending& p : orphans) {
    resolve(p, shed_result(service::ShedReason::kShutdown));
  }
}

QueryBroker::Stats QueryBroker::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void QueryBroker::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    if (stopping_) {
      return;  // shutdown() sheds what remains after the join
    }
    Pending head = std::move(pending_.front());
    pending_.pop_front();
    if (Clock::now() >= head.deadline) {
      lock.unlock();
      resolve(head, shed_result(service::ShedReason::kDeadlineExpired));
      lock.lock();
      continue;
    }

    // Linger from the head's ENQUEUE time (not from now): time already
    // spent waiting in the queue counts against the linger budget, so a
    // backlogged service never adds artificial delay.
    const Clock::time_point linger_until =
        head.enqueued_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(config_.max_linger_seconds));
    const auto companions = [&] {
      std::size_t n = 1;
      for (const Pending& p : pending_) {
        if (compatible(p, head)) {
          ++n;
        }
      }
      return n;
    };
    while (!stopping_ && companions() < config_.max_batch &&
           Clock::now() < linger_until) {
      if (work_cv_.wait_until(lock, linger_until) ==
          std::cv_status::timeout) {
        break;
      }
    }

    // Re-check the head after lingering: a tight deadline can expire
    // while the head itself waits for companions.
    const Clock::time_point now = Clock::now();
    if (now >= head.deadline) {
      lock.unlock();
      resolve(head, shed_result(service::ShedReason::kDeadlineExpired));
      lock.lock();
      continue;
    }

    std::vector<Pending> batch;
    std::vector<Pending> expired;
    batch.reserve(config_.max_batch);
    batch.push_back(std::move(head));
    for (auto it = pending_.begin();
         it != pending_.end() && batch.size() < config_.max_batch;) {
      if (!compatible(*it, batch.front())) {
        ++it;
        continue;
      }
      if (now >= it->deadline) {
        expired.push_back(std::move(*it));
      } else {
        batch.push_back(std::move(*it));
      }
      it = pending_.erase(it);
    }
    lock.unlock();
    for (Pending& p : expired) {
      resolve(p, shed_result(service::ShedReason::kDeadlineExpired));
    }
    dispatch(std::move(batch));
    lock.lock();
  }
}

void QueryBroker::dispatch(std::vector<Pending> batch) {
  const std::size_t n = batch.size();
  const bool bfs = is_bfs_family(batch.front().query.kind);

  // Lane assignment with in-batch dedup: members asking about the same
  // source (BFS family) or the same seed set (PPR) share one lane. n is
  // at most kMaxLanes, so the quadratic scan is a handful of compares.
  std::vector<std::size_t> lane_of(n);
  std::vector<std::size_t> rep;
  rep.reserve(n);
  std::vector<std::vector<graph::vid_t>> seeds;
  if (!bfs) {
    seeds.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      seeds[i] = batch[i].query.seeds;
      std::sort(seeds[i].begin(), seeds[i].end());
      seeds[i].erase(std::unique(seeds[i].begin(), seeds[i].end()),
                     seeds[i].end());
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t lane = rep.size();
    for (std::size_t l = 0; l < rep.size(); ++l) {
      const std::size_t j = rep[l];
      const bool same = bfs ? batch[j].query.source == batch[i].query.source
                            : seeds[j] == seeds[i];
      if (same) {
        lane = l;
        break;
      }
    }
    if (lane == rep.size()) {
      rep.push_back(i);
    }
    lane_of[i] = lane;
  }
  const std::size_t u = rep.size();

  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.lanes += n;
    stats_.engine_lanes += u;
  }
  if (bfs) {
    // Smallest compiled lane width that fits the UNIQUE lanes; spare
    // lanes are padded.
    if (u <= 1) {
      run_bfs_batch<1>(batch, lane_of, rep);
    } else if (u <= 2) {
      run_bfs_batch<2>(batch, lane_of, rep);
    } else if (u <= 4) {
      run_bfs_batch<4>(batch, lane_of, rep);
    } else {
      run_bfs_batch<8>(batch, lane_of, rep);
    }
  } else {
    if (u <= 1) {
      run_ppr_batch<1>(batch, lane_of, rep);
    } else if (u <= 2) {
      run_ppr_batch<2>(batch, lane_of, rep);
    } else if (u <= 4) {
      run_ppr_batch<4>(batch, lane_of, rep);
    } else {
      run_ppr_batch<8>(batch, lane_of, rep);
    }
  }
}

void QueryBroker::resolve(Pending& p, QueryResult r) {
  if (p.epoch != nullptr) {
    r.epoch_fingerprint = p.epoch->fingerprint();
    r.epoch_id = p.epoch->id();
  }
  r.latency_seconds =
      std::chrono::duration<double>(Clock::now() - p.enqueued_at).count();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    switch (r.status) {
      case QueryResult::Status::kOk:
        ++stats_.completed;
        break;
      case QueryResult::Status::kShed:
        ++stats_.shed;
        break;
      case QueryResult::Status::kFailed:
        ++stats_.failed;
        break;
    }
  }
  p.state->fulfil(std::move(r));
}

template <std::size_t K>
void QueryBroker::run_bfs_batch(std::vector<Pending>& batch,
                                const std::vector<std::size_t>& lane_of,
                                const std::vector<std::size_t>& rep) {
  const std::size_t n = batch.size();
  const std::size_t u = rep.size();
  const EpochPtr epoch = batch.front().epoch;
  const graph::CsrGraph& g = epoch->graph();

  apps::MultiBfs<K> program;
  for (std::size_t k = 0; k < K; ++k) {
    // Padding lanes repeat lane 0's source: a duplicate wavefront rides
    // the same supersteps at near-zero cost.
    program.sources[k] = batch[rep[std::min(k, u - 1)]].query.source;
  }

  service::JobSpec spec;
  const Clock::time_point now = Clock::now();
  Clock::time_point tightest = Clock::time_point::max();
  for (const Pending& p : batch) {
    spec.priority = std::max(spec.priority, p.query.priority);
    tightest = std::min(tightest, p.deadline);
  }
  if (tightest != Clock::time_point::max()) {
    spec.deadline_seconds = std::max(
        0.001, std::chrono::duration<double>(tightest - now).count());
  }

  std::optional<service::JobTicket<apps::MultiBfs<K>>> ticket;
  try {
    ticket.emplace(jobs_.submit(graph_of(epoch), program,
                                kBfsVersion, EngineOptions{},
                                spec));
  } catch (const service::ShedError& e) {
    // Admission-time rejection (queue depth or memory ledger): the whole
    // batch is shed typed, mirroring what a direct submitter would see.
    for (Pending& p : batch) {
      resolve(p, shed_result(e.reason()));
    }
    return;
  }
  const service::JobReport& report = ticket->wait();
  if (report.state == service::JobState::kShed) {
    for (Pending& p : batch) {
      resolve(p, shed_result(report.shed_reason.value_or(
                     service::ShedReason::kShutdown)));
    }
    return;
  }
  if (report.state != service::JobState::kCompleted) {
    for (Pending& p : batch) {
      QueryResult r;
      r.status = QueryResult::Status::kFailed;
      r.error = report.error ? report.error->what() : "engine run failed";
      resolve(p, std::move(r));
    }
    return;
  }

  const auto& values = ticket->values();
  std::array<std::uint64_t, K> reached{};
  for (std::size_t slot = g.first_slot(); slot < g.num_slots(); ++slot) {
    for (std::size_t k = 0; k < K; ++k) {
      if (values[slot][k] != apps::MultiBfs<K>::kInfinity) {
        ++reached[k];
      }
    }
  }

  const bool cacheable =
      config_.enable_cache && cache_ != nullptr &&
      registry_.current_fingerprint() == epoch->fingerprint();
  for (std::size_t i = 0; i < n; ++i) {
    const PointQuery& q = batch[i].query;
    const std::size_t lane = lane_of[i];
    QueryResult r;
    r.epoch_fingerprint = epoch->fingerprint();
    r.epoch_id = epoch->id();
    r.batch_occupancy = n;
    if (q.kind == QueryKind::kDistance) {
      r.reached = reached[lane];
      r.distances.reserve(q.targets.size());
      for (const graph::vid_t t : q.targets) {
        r.distances.push_back(addressable(g, t)
                                  ? values[g.slot_of(t)][lane]
                                  : QueryResult::kUnreachable);
      }
    } else {
      r.reachable =
          !q.targets.empty() && addressable(g, q.targets.front()) &&
          values[g.slot_of(q.targets.front())][lane] !=
              apps::MultiBfs<K>::kInfinity;
    }
    if (cacheable) {
      cache_->insert(epoch->fingerprint(), batch[i].key, r);
    }
    resolve(batch[i], std::move(r));
  }
}

template <std::size_t K>
void QueryBroker::run_ppr_batch(std::vector<Pending>& batch,
                                const std::vector<std::size_t>& lane_of,
                                const std::vector<std::size_t>& rep) {
  const std::size_t n = batch.size();
  const std::size_t u = rep.size();
  const EpochPtr epoch = batch.front().epoch;
  const graph::CsrGraph& g = epoch->graph();

  apps::MultiPpr<K> program;
  program.rounds = config_.ppr_rounds;
  program.damping = config_.ppr_damping;
  // Padding lanes keep empty seed sets and converge to all-zero ranks.
  for (std::size_t k = 0; k < u; ++k) {
    program.set_seeds(k, batch[rep[k]].query.seeds);
  }

  service::JobSpec spec;
  const Clock::time_point now = Clock::now();
  Clock::time_point tightest = Clock::time_point::max();
  for (const Pending& p : batch) {
    spec.priority = std::max(spec.priority, p.query.priority);
    tightest = std::min(tightest, p.deadline);
  }
  if (tightest != Clock::time_point::max()) {
    spec.deadline_seconds = std::max(
        0.001, std::chrono::duration<double>(tightest - now).count());
  }

  std::optional<service::JobTicket<apps::MultiPpr<K>>> ticket;
  try {
    ticket.emplace(jobs_.submit(graph_of(epoch), program,
                                kPprVersion, EngineOptions{},
                                spec));
  } catch (const service::ShedError& e) {
    for (Pending& p : batch) {
      resolve(p, shed_result(e.reason()));
    }
    return;
  }
  const service::JobReport& report = ticket->wait();
  if (report.state == service::JobState::kShed) {
    for (Pending& p : batch) {
      resolve(p, shed_result(report.shed_reason.value_or(
                     service::ShedReason::kShutdown)));
    }
    return;
  }
  if (report.state != service::JobState::kCompleted) {
    for (Pending& p : batch) {
      QueryResult r;
      r.status = QueryResult::Status::kFailed;
      r.error = report.error ? report.error->what() : "engine run failed";
      resolve(p, std::move(r));
    }
    return;
  }

  const auto& values = ticket->values();
  const bool cacheable =
      config_.enable_cache && cache_ != nullptr &&
      registry_.current_fingerprint() == epoch->fingerprint();
  for (std::size_t i = 0; i < n; ++i) {
    const PointQuery& q = batch[i].query;
    QueryResult r;
    r.epoch_fingerprint = epoch->fingerprint();
    r.epoch_id = epoch->id();
    r.batch_occupancy = n;
    std::vector<RankedVertex> ranked;
    const std::size_t lane = lane_of[i];
    for (std::size_t slot = g.first_slot(); slot < g.num_slots(); ++slot) {
      const double rank = values[slot][lane];
      if (rank > 0.0) {
        ranked.push_back(RankedVertex{g.id_of(slot), rank});
      }
    }
    const std::size_t keep = std::min(q.top_n, ranked.size());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                      ranked.end(),
                      [](const RankedVertex& a, const RankedVertex& b) {
                        if (a.rank != b.rank) {
                          return a.rank > b.rank;
                        }
                        return a.id < b.id;
                      });
    ranked.resize(keep);
    // The scratch vector held O(|V|) candidates; without this shrink the
    // top-N payload would keep that capacity alive in the result cache
    // (megabytes per entry, churning the byte cap) and in every caller.
    ranked.shrink_to_fit();
    r.top = std::move(ranked);
    if (cacheable) {
      cache_->insert(epoch->fingerprint(), batch[i].key, r);
    }
    resolve(batch[i], std::move(r));
  }
}

}  // namespace ipregel::query
