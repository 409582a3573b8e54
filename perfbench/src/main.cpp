// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>]
//
// A run builds the workload's graph from the seed, computes reference
// answers, warms each app up once, then runs PageRank, Hashmin and SSSP jobs
// round-robin, one at a time, for the given seconds. Every job is checked
// against the references before its time counts. The last line on stdout is
// a JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The exit code is 0
// only when every job was correct. README.md in this directory describes
// the workloads and metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/serial_reference.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "io/vfs.hpp"
#include "probes.hpp"
#include "runtime/memory_tracker.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "shard/coordinator.hpp"
#include "store/page_cache.hpp"
#include "store/paged_graph.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"
#include "store/streaming_runner.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace ipregel;

// ---- fixed workload parameters --------------------------------------------

// Fewer threads than the 4 cores of the reference box: with every core busy
// a neighbour's load lands on the critical path of each barrier.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kShards = 2;
constexpr unsigned kRmatScale = 18;
constexpr unsigned kRmatEdgeFactor = 12;
constexpr graph::vid_t kRoadRows = 400;
constexpr graph::vid_t kRoadCols = 600;
constexpr double kRoadRemoval = 0.03;
constexpr std::size_t kPageRankRounds = 30;
// Set-up runs at least this often and, when it is short (the lattice takes
// ~20 ms), until this much time has passed, so its median is steady.
constexpr std::size_t kSetupReps = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMinRounds = 3;
// An app's turn in a round repeats its job until the turn lasted this long,
// so short jobs (road PageRank) get enough samples for a steady median.
constexpr double kMinTurnSeconds = 0.5;
// Engine pull PageRank and the serial reference add the same terms in a
// different order; on the R-MAT graph the distance measured up to ~120 ULPs.
constexpr std::int64_t kPageRankMaxUlps = 1024;
constexpr double kShardPageRankTolerance = 1e-9;
constexpr std::size_t kUncapped = static_cast<std::size_t>(-1);
// Jobs on a backend other than the workload's own run in the traced run
// only, so that every layer reports on every workload. They stop after this
// many supersteps: the R-MAT jobs converge well before it, the
// 1000-superstep road jobs would otherwise take minutes on the shard and
// paged backends.
constexpr std::size_t kOtherBackendCap = 40;

enum class App : std::uint8_t { kPageRank, kHashmin, kSssp };
constexpr App kApps[] = {App::kPageRank, App::kHashmin, App::kSssp};

const char* app_name(App a) {
  switch (a) {
    case App::kPageRank:
      return "pagerank";
    case App::kHashmin:
      return "hashmin";
    case App::kSssp:
      return "sssp";
  }
  return "?";
}

enum class Backend : std::uint8_t { kEngine, kShard, kPaged };
constexpr Backend kBackends[] = {Backend::kEngine, Backend::kShard,
                                 Backend::kPaged};
enum class GraphKind : std::uint8_t { kWiki, kRoad };

struct WorkloadSpec {
  const char* name;
  GraphKind graph;
  Backend backend;
  std::size_t sssp_sources;  ///< sources per SSSP job, so a job is long
};

constexpr WorkloadSpec kWorkloads[] = {
    {"wiki-engine", GraphKind::kWiki, Backend::kEngine, 8},
    {"road-engine", GraphKind::kRoad, Backend::kEngine, 24},
    {"wiki-sharded", GraphKind::kWiki, Backend::kShard, 8},
    {"wiki-paged", GraphKind::kWiki, Backend::kPaged, 8},
};

struct Args {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

// ---- small helpers ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return runtime::mix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

template <typename T>
std::uint64_t hash_slots(const std::vector<T>& v, std::size_t first) {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (std::size_t i = first; i < v.size(); ++i) {
    std::uint64_t x = 0;
    std::memcpy(&x, &v[i], sizeof(T));
    h = runtime::mix64(h ^ (x + i));
  }
  return h;
}

std::int64_t ulp_distance(double a, double b) {
  if (a == b) {
    return 0;
  }
  if (std::isnan(a) || std::isnan(b) || std::signbit(a) != std::signbit(b)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  // Same-signed doubles are ordered like their bit patterns.
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// VmHWM restarts from the current RSS, so the next sample covers only what
/// runs after this call. Freed heap is returned first so it does not count.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) {
    std::cerr << "# cannot reset VmHWM: peak_rss_mb includes set-up\n";
  }
}

/// Confines the run to the last kThreads CPUs it may use; pool threads and
/// shard workers inherit the mask. Unpinned, the scheduler moves the two
/// engine threads between cores and barrier-heavy jobs spread ~10% more
/// within a run.
void pin_to_last_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      static_cast<std::size_t>(CPU_COUNT(&allowed)) < kThreads) {
    return;
  }
  cpu_set_t mine;
  CPU_ZERO(&mine);
  std::size_t picked = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && picked < kThreads; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &mine);
      ++picked;
    }
  }
  (void)::sched_setaffinity(0, sizeof(mine), &mine);
}

// ---- inputs -----------------------------------------------------------------

/// The wiki stand-in: seeded R-MAT edges under one fixed id permutation.
/// The generator's own scrambling draws the permutation from the edge seed,
/// and Hashmin's work depends on where the smallest ids land: with it,
/// hashmin_s moved ~15% from seed to seed with no code change. With a fixed
/// permutation the edges still follow the seed and hubs still sit at
/// scattered ids.
class WikiEdges final : public graph::EdgeSource {
 public:
  explicit WikiEdges(std::uint64_t seed)
      : stream_(kRmatScale, kRmatEdgeFactor,
                {.seed = derive_seed(seed, 1), .scramble_ids = false}),
        perm_(std::size_t{1} << kRmatScale) {
    std::iota(perm_.begin(), perm_.end(), graph::vid_t{0});
    runtime::Xoshiro256 rng(0x5EED'1D5ULL);
    for (std::size_t i = perm_.size() - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[rng() % (i + 1)]);
    }
  }

  void restart() override { stream_.restart(); }
  bool next(graph::Edge& e) override {
    if (!stream_.next(e)) {
      return false;
    }
    e = graph::Edge{perm_[e.src], perm_[e.dst]};
    return true;
  }
  [[nodiscard]] graph::eid_t num_edges() const override {
    return stream_.num_edges();
  }

 private:
  graph::RmatStream stream_;
  std::vector<graph::vid_t> perm_;
};

graph::EdgeList generate(GraphKind kind, std::uint64_t seed) {
  if (kind == GraphKind::kWiki) {
    WikiEdges source(seed);
    std::vector<graph::Edge> edges;
    edges.reserve(source.num_edges());
    for (graph::Edge e; source.next(e);) {
      edges.push_back(e);
    }
    return graph::EdgeList(std::move(edges));
  }
  return graph::grid_2d(kRoadRows, kRoadCols,
                        {.removal_fraction = kRoadRemoval,
                         .seed = derive_seed(seed, 2)});
}

graph::CsrGraph build_csr(const graph::EdgeList& edges) {
  return graph::CsrGraph::build(
      edges, {.addressing = graph::AddressingMode::kOffset,
              .build_in_edges = true,
              .keep_weights = false});
}

/// Seeded SSSP sources among vertices with out-edges, so every job relaxes
/// a real wavefront.
std::vector<graph::vid_t> pick_sources(const graph::CsrGraph& g,
                                       std::uint64_t seed, std::size_t k) {
  runtime::Xoshiro256 rng(derive_seed(seed, 3));
  std::vector<graph::vid_t> out;
  const std::size_t n = g.num_slots() - g.first_slot();
  while (out.size() < k) {
    const std::size_t slot = g.first_slot() + rng() % n;
    if (g.out_degree(slot) > 0) {
      out.push_back(g.id_of(slot));
    }
  }
  return out;
}

// ---- one job ------------------------------------------------------------------

/// Time and layer counters of one job. A job is one run, except SSSP,
/// which is one run per source.
struct JobResult {
  double seconds = 0.0;
  std::size_t runs = 0;
  std::size_t supersteps = 0;
  std::size_t messages = 0;
  std::size_t executed = 0;
  double construct_s = 0.0;
  double run_s = 0.0;
  double superstep_s = 0.0;
  std::vector<double> superstep_us;
  std::size_t respawns = 0;
  std::size_t pins = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t peak_resident_bytes = 0;
};

struct References {
  std::vector<double> serial_pagerank;
  std::vector<double> engine_pagerank;
  std::uint64_t hashmin = 0;
  std::vector<std::uint64_t> sssp;
  /// Engine answers after kOtherBackendCap supersteps, by app key.
  std::map<std::uint64_t, std::uint64_t> capped;
};

constexpr std::size_t kTrackedCategories = 6;
constexpr runtime::MemCategory kTracked[kTrackedCategories] = {
    runtime::MemCategory::kGraphTopology, runtime::MemCategory::kMailboxes,
    runtime::MemCategory::kLocks,         runtime::MemCategory::kOutboxes,
    runtime::MemCategory::kFrontier,      runtime::MemCategory::kPageCache};
constexpr const char* kTrackedNames[kTrackedCategories] = {
    "topology", "mailboxes", "locks", "outboxes", "frontier", "page_cache"};

struct Bench {
  Args args;
  Tracer tracer;
  runtime::ThreadPool pool{kThreads};
  std::optional<graph::CsrGraph> csr;
  std::string store_path;
  std::unique_ptr<store::PagedStore> store;
  std::vector<graph::vid_t> sources;
  References ref;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Sampled only during the workload's own traced jobs.
  bool sample_tracked = false;
  std::array<std::size_t, kTrackedCategories> tracked_peak{};
  /// Per-layer samples; each metric reports the median of its samples.
  std::map<std::string, std::vector<double>> layer;

  explicit Bench(Args a) : args(std::move(a)), tracer(args.trace) {}

  [[nodiscard]] const WorkloadSpec& spec() const { return *args.workload; }
  /// The paged workload holds no CSR while its jobs run.
  [[nodiscard]] std::size_t first_slot() const {
    return csr ? csr->first_slot() : store->superblock().first_slot;
  }
  void sample(const std::string& name, double v) { layer[name].push_back(v); }
  void sample_tracked_memory() {
    if (!sample_tracked) {
      return;
    }
    for (std::size_t i = 0; i < kTrackedCategories; ++i) {
      tracked_peak[i] = std::max(
          tracked_peak[i], runtime::MemoryTracker::instance().bytes(kTracked[i]));
    }
  }
};

template <typename Program>
using Values = std::vector<typename Program::value_type>;

template <typename Program, CombinerKind Combiner, bool Bypass>
bool engine_once(Bench& b, const Program& program, std::size_t cap,
                 Tracer* tr, Values<Program>& out, JobResult& jr) {
  const auto t0 = Clock::now();
  EngineOptions options;
  options.max_supersteps = cap;
  if (tr == nullptr) {
    const RunResult r = run_version(*b.csr, program,
                                    VersionId{Combiner, Bypass}, options,
                                    &b.pool, &out);
    jr.seconds += seconds_since(t0);
    jr.supersteps += r.supersteps;
    jr.messages += r.total_messages;
    jr.executed += r.total_executed_vertices;
    return r.reached_superstep_cap;
  }
  options.collect_superstep_stats = true;
  std::optional<Engine<Program, Combiner, Bypass>> engine;
  {
    const ScopedSpan span(*tr, "engine.construct");
    const auto c0 = Clock::now();
    engine.emplace(*b.csr, program, options, &b.pool);
    jr.construct_s += seconds_since(c0);
  }
  b.sample_tracked_memory();
  RunResult r;
  {
    const ScopedSpan span(*tr, "engine.run");
    const auto r0 = Clock::now();
    r = engine->run();
    jr.run_s += seconds_since(r0);
    b.sample_tracked_memory();  // frontier lists grow during the run
    // Supersteps as children of the run span, laid end to end from its
    // start: the engine reports their durations, not their start times.
    std::int64_t at = tr->start_of(span.id());
    for (const SuperstepStats& s : r.per_superstep) {
      const auto ns = static_cast<std::int64_t>(s.seconds * 1e9);
      tr->add("engine.superstep", at, at + ns, span.id());
      at += ns;
      jr.superstep_s += s.seconds;
      jr.superstep_us.push_back(s.seconds * 1e6);
    }
  }
  jr.seconds += seconds_since(t0);
  jr.supersteps += r.supersteps;
  jr.messages += r.total_messages;
  jr.executed += r.total_executed_vertices;
  const auto values = engine->values();
  out.assign(values.begin(), values.end());
  return r.reached_superstep_cap;
}

template <typename Program>
bool shard_once(Bench& b, const Program& program, std::size_t cap,
                Tracer* tr, Values<Program>& out, JobResult& jr) {
  shard::ShardOptions options;
  options.num_shards = kShards;
  options.max_supersteps = std::min(options.max_supersteps, cap);
  const auto t0 = Clock::now();
  shard::ShardOutcome r;
  {
    const std::optional<ScopedSpan> span =
        tr == nullptr ? std::nullopt
                      : std::make_optional<ScopedSpan>(*tr, "shard.run_sharded");
    r = shard::run_sharded(*b.csr, program, options, &out);
  }
  jr.seconds += seconds_since(t0);
  jr.run_s += seconds_since(t0);
  b.sample_tracked_memory();
  if (!r.ok()) {
    throw std::runtime_error(std::string("run_sharded: ") + r.error->what());
  }
  jr.supersteps += r.result.supersteps;
  jr.messages += r.result.total_messages;
  jr.executed += r.result.total_executed_vertices;
  jr.respawns += r.shard.respawns;
  return r.result.reached_superstep_cap;
}

template <typename Program>
bool paged_once(Bench& b, const Program& program, store::StreamMode mode,
                std::size_t cap, Tracer* tr, Values<Program>& out,
                JobResult& jr) {
  const auto t0 = Clock::now();
  std::optional<store::PageCache> cache;
  std::optional<store::PagedGraph> graph;
  std::optional<store::StreamingRunner<Program>> runner;
  {
    const std::optional<ScopedSpan> span =
        tr == nullptr ? std::nullopt
                      : std::make_optional<ScopedSpan>(*tr, "paged.open");
    // Full budget: every page fits, so the cost measured is pinning, not I/O.
    cache.emplace(*b.store,
                  store::PageCacheOptions{.budget_bytes = b.store->num_pages() *
                                                          b.store->page_bytes()});
    graph.emplace(*b.store, *cache);
    runner.emplace(*graph, program,
                   store::PagedRunOptions{.threads = kThreads,
                                          .max_supersteps = cap});
  }
  store::PagedRunResult r;
  {
    const std::optional<ScopedSpan> span =
        tr == nullptr ? std::nullopt
                      : std::make_optional<ScopedSpan>(*tr, "paged.run");
    const auto r0 = Clock::now();
    r = runner->run(mode);
    jr.run_s += seconds_since(r0);
  }
  jr.seconds += seconds_since(t0);
  b.sample_tracked_memory();
  jr.supersteps += r.run.supersteps;
  jr.messages += r.run.total_messages;
  jr.executed += r.run.total_executed_vertices;
  jr.pins += r.cache.hits + r.cache.misses;
  jr.misses += r.cache.misses;
  jr.evictions += r.cache.evictions;
  jr.peak_resident_bytes =
      std::max(jr.peak_resident_bytes, r.cache.peak_resident_bytes);
  out = runner->values();
  return r.run.reached_superstep_cap;
}

/// Runs `program` once on `backend`, for at most `cap` supersteps, with the
/// version PAPER.md names as the winner for it: PageRank pulls, Hashmin and
/// SSSP push through spinlocks with selection bypass; paged pulls PageRank
/// and pushes the others. Returns whether the run stopped at the cap.
template <typename Program>
bool run_once(Bench& b, Backend backend, const Program& program,
              std::size_t cap, Tracer* tr, Values<Program>& out,
              JobResult& jr) {
  constexpr bool kPull = !Program::always_halts;
  ++jr.runs;
  switch (backend) {
    case Backend::kEngine:
      if constexpr (kPull) {
        return engine_once<Program, CombinerKind::kPull, false>(
            b, program, cap, tr, out, jr);
      } else {
        return engine_once<Program, CombinerKind::kSpinlockPush, true>(
            b, program, cap, tr, out, jr);
      }
    case Backend::kShard:
      return shard_once(b, program, cap, tr, out, jr);
    case Backend::kPaged:
      return paged_once(
          b, program,
          kPull ? store::StreamMode::kPull : store::StreamMode::kPush, cap, tr,
          out, jr);
  }
  return false;
}

/// Hash of the engine's answer after `kOtherBackendCap` supersteps: the
/// reference for a capped run on another backend.
template <typename Program>
std::uint64_t capped_reference(Bench& b, const Program& program,
                               std::uint64_t key) {
  auto [it, inserted] = b.ref.capped.try_emplace(key, 0);
  if (inserted) {
    JobResult ignored;
    Values<Program> out;
    if (!run_once(b, Backend::kEngine, program, kOtherBackendCap, nullptr, out,
                  ignored)) {
      throw std::runtime_error("capped reference run converged early");
    }
    it->second = hash_slots(out, b.csr->first_slot());
  }
  return it->second;
}

std::string check_pagerank(const Bench& b, Backend backend,
                           const std::vector<double>& got) {
  const std::size_t first = b.first_slot();
  switch (backend) {
    case Backend::kEngine: {
      const auto& want = b.ref.serial_pagerank;
      if (got.size() != want.size()) {
        return "pagerank: size differs from the serial reference";
      }
      for (std::size_t s = first; s < got.size(); ++s) {
        if (ulp_distance(got[s], want[s]) > kPageRankMaxUlps) {
          return "pagerank: slot " + std::to_string(s) + " is more than " +
                 std::to_string(kPageRankMaxUlps) +
                 " ULPs from the serial reference";
        }
      }
      return {};
    }
    case Backend::kShard: {
      const auto& want = b.ref.engine_pagerank;
      if (got.size() != want.size()) {
        return "pagerank: size differs from the engine";
      }
      for (std::size_t s = first; s < got.size(); ++s) {
        if (!(std::fabs(got[s] - want[s]) <= kShardPageRankTolerance)) {
          return "pagerank: slot " + std::to_string(s) +
                 " differs from the engine by more than 1e-9";
        }
      }
      return {};
    }
    case Backend::kPaged:
      if (got.size() != b.ref.engine_pagerank.size() ||
          std::memcmp(got.data() + first, b.ref.engine_pagerank.data() + first,
                      (got.size() - first) * sizeof(double)) != 0) {
        return "pagerank: paged pull is not bit-identical to the engine";
      }
      return {};
  }
  return "unknown backend";
}

/// Runs and verifies one job. A wrong answer, a run error or a shard
/// respawn counts as a failed operation. A job on another backend than the
/// workload's own (traced run only) is capped and runs SSSP from the first
/// source only.
JobResult run_job(Bench& b, Backend backend, App app, bool traced,
                  bool other_backend = false) {
  const std::size_t cap = other_backend ? kOtherBackendCap : kUncapped;
  const std::size_t sources = other_backend ? 1 : b.sources.size();
  Tracer* tr = traced ? &b.tracer : nullptr;
  const std::optional<ScopedSpan> span =
      traced ? std::make_optional<ScopedSpan>(b.tracer,
                                              std::string("job.") + app_name(app))
             : std::nullopt;
  JobResult jr;
  std::string error;
  ++b.attempted;
  try {
    const std::size_t first = b.first_slot();
    switch (app) {
      case App::kPageRank: {
        std::vector<double> out;
        if (run_once(b, backend, apps::PageRank{.rounds = kPageRankRounds},
                     cap, tr, out, jr)) {
          throw std::runtime_error("pagerank stopped at the superstep cap");
        }
        error = check_pagerank(b, backend, out);
        break;
      }
      case App::kHashmin: {
        std::vector<graph::vid_t> out;
        const bool capped = run_once(b, backend, apps::Hashmin{}, cap, tr,
                                     out, jr);
        if (hash_slots(out, first) !=
            (capped ? capped_reference(b, apps::Hashmin{}, 0) : b.ref.hashmin)) {
          error = "hashmin: labels differ from the serial reference";
        }
        break;
      }
      case App::kSssp:
        for (std::size_t i = 0; i < sources && error.empty(); ++i) {
          std::vector<std::uint32_t> out;
          const apps::Sssp sssp{.source = b.sources[i]};
          const bool capped = run_once(b, backend, sssp, cap, tr, out, jr);
          if (hash_slots(out, first) !=
              (capped ? capped_reference(b, sssp, 1 + i) : b.ref.sssp[i])) {
            error = "sssp: distances from source " +
                    std::to_string(b.sources[i]) +
                    " differ from the serial reference";
          }
        }
        break;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (error.empty() && jr.respawns != 0) {
    error = "shard worker respawned " + std::to_string(jr.respawns) + " times";
  }
  if (!error.empty()) {
    ++b.failed;
    std::cerr << "FAILED: " << error << "\n";
  }
  return jr;
}

// ---- set-up and references ------------------------------------------------------

void timed_csr_build(Bench& b) {
  b.csr.reset();
  const ScopedSpan span(b.tracer, "setup.csr");
  graph::EdgeList edges;
  {
    const ScopedSpan g(b.tracer, "graph.generate");
    const auto t0 = Clock::now();
    edges = generate(b.spec().graph, b.args.seed);
    b.sample("graph.generate_s", seconds_since(t0));
  }
  const ScopedSpan c(b.tracer, "graph.csr_build");
  const auto t0 = Clock::now();
  b.csr = build_csr(edges);
  b.sample("graph.csr_build_s", seconds_since(t0));
}

/// Writes the paged store: streamed from the R-MAT generator on the paged
/// workload (no edge list or CSR is ever resident), from the CSR elsewhere.
void timed_store_build(Bench& b) {
  b.store.reset();
  const ScopedSpan span(b.tracer, "store.build");
  const auto t0 = Clock::now();
  if (b.spec().backend == Backend::kPaged) {
    WikiEdges source(b.args.seed);
    store::write_store_streaming(source, b.store_path, nullptr,
                                 {.build_in_edges = true});
  } else {
    store::write_store(*b.csr, b.store_path);
  }
  b.store = std::make_unique<store::PagedStore>(io::real_vfs(), b.store_path);
  b.sample("store.build_s", seconds_since(t0));
}

/// Reference answers: the serial implementations for Hashmin, SSSP and
/// engine PageRank, and the engine's PageRank (itself checked against the
/// serial one) for the sharded (1e-9) and paged (bit-identical) checks.
void compute_references(Bench& b) {
  const graph::CsrGraph& g = *b.csr;
  const ScopedSpan span(b.tracer, "references");
  b.sources = pick_sources(g, b.args.seed, b.spec().sssp_sources);
  const auto hm = apps::serial::hashmin(g);
  b.ref.hashmin = hash_slots(hm, g.first_slot());
  for (const graph::vid_t s : b.sources) {
    b.ref.sssp.push_back(hash_slots(apps::serial::sssp_unit(g, s),
                                    g.first_slot()));
  }
  b.ref.serial_pagerank = apps::serial::pagerank(g, kPageRankRounds);
  (void)run_version(g, apps::PageRank{.rounds = kPageRankRounds},
                    VersionId{CombinerKind::kPull, false}, EngineOptions{},
                    &b.pool, &b.ref.engine_pagerank);
  const std::string error =
      check_pagerank(b, Backend::kEngine, b.ref.engine_pagerank);
  if (!error.empty()) {
    throw std::runtime_error("engine reference: " + error);
  }
}

/// Peak resident memory of the timed jobs, in MiB: this process's VmHWM
/// since reset_peak_rss(), plus, for shard workers, what each grew beyond
/// the image it inherited at fork (ru_maxrss of the largest reaped child
/// minus the coordinator's RSS when the jobs began), once per shard.
double sample_peak_rss_mb(std::size_t inherited_bytes, bool sharded) {
  const std::size_t self = runtime::read_peak_rss_bytes();
  std::size_t workers = 0;
  if (sharded) {
    struct rusage ru {};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    const auto child = static_cast<std::size_t>(ru.ru_maxrss) * 1024;
    workers = kShards * (child > inherited_bytes ? child - inherited_bytes : 0);
    std::cerr << "# peak: coordinator " << mib(self) << " MiB, largest worker "
              << mib(child) << " MiB, inherited " << mib(inherited_bytes)
              << " MiB\n";
  }
  return mib(self + workers);
}

// ---- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Bench& b, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (b.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << b.attempted << ", \"failed\": " << b.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- the run ------------------------------------------------------------------------

std::string suffixed(const std::string& base, App app) {
  return base + "." + app_name(app);
}

/// Per-layer samples of one traced job.
void sample_job(Bench& b, Backend backend, App app, const JobResult& jr,
                std::size_t vertices) {
  const auto n = [&](const char* base, double v) {
    b.sample(suffixed(base, app), v);
  };
  switch (backend) {
    case Backend::kEngine:
      n("engine.construct_s", jr.construct_s);
      n("engine.run_s", jr.run_s);
      n("engine.loop_gap_s", jr.run_s - jr.superstep_s);
      n("engine.superstep_us.p50", median(jr.superstep_us));
      n("engine.superstep_us.max", max_of(jr.superstep_us));
      n("engine.active_ratio",
        static_cast<double>(jr.executed) /
            (static_cast<double>(jr.supersteps) *
             static_cast<double>(vertices)));
      n("engine.supersteps", static_cast<double>(jr.supersteps));
      n("engine.messages", static_cast<double>(jr.messages));
      n("engine.executed_vertices", static_cast<double>(jr.executed));
      return;
    case Backend::kShard:
      n("shard.job_s", jr.seconds);
      n("shard.runs", static_cast<double>(jr.runs));
      n("shard.supersteps", static_cast<double>(jr.supersteps));
      n("shard.messages", static_cast<double>(jr.messages));
      b.sample("shard.respawns", static_cast<double>(jr.respawns));
      return;
    case Backend::kPaged:
      n("paged.run_s", jr.run_s);
      n("cache.pins", static_cast<double>(jr.pins));
      n("cache.misses", static_cast<double>(jr.misses));
      n("cache.evictions", static_cast<double>(jr.evictions));
      n("cache.peak_resident_mb", mib(jr.peak_resident_bytes));
      return;
  }
}

/// Traced run only: one capped job per app on each of the two backends the
/// workload does not use, on the same graph, so that every layer reports on
/// every workload.
void run_other_backends(Bench& b, std::size_t vertices) {
  for (const Backend backend : kBackends) {
    if (backend == b.spec().backend) {
      continue;
    }
    if (backend != Backend::kPaged && !b.csr) {
      timed_csr_build(b);
    }
    if (backend == Backend::kPaged && !b.store) {
      timed_store_build(b);
    }
    for (const App app : kApps) {
      sample_job(b, backend, app, run_job(b, backend, app, true, true),
                 vertices);
    }
  }
}

void run_probes(Bench& b, std::size_t vertices) {
  const ScopedSpan span(b.tracer, "probes");
  const auto probe = [&b](const char* metric, const auto& measure) {
    const ScopedSpan s(b.tracer, metric);
    b.sample(metric, measure());
  };
  probe("runtime.dispatch_us", [&] { return dispatch_us(b.pool); });
  probe("cache.pin_ns.t1", [&] { return pin_ns(*b.store, 1); });
  probe("cache.pin_ns.t2", [&] { return pin_ns(*b.store, 2); });
  // A frame carries one (slot, message) entry per receiving vertex.
  probe("shard.ring_gbps", [&] {
    return ring_gbps(vertices / kShards *
                     (sizeof(std::uint32_t) + sizeof(double)));
  });
  probe("shard.ctrl_rtt_us", [] { return ctrl_rtt_us(); });
  shard::ShardOptions capped;
  capped.num_shards = kShards;
  capped.max_supersteps = 1;
  for (int i = 0; i < 5; ++i) {
    probe("shard.fixed_s", [&] {
      const auto t0 = Clock::now();
      const shard::ShardOutcome r = shard::run_sharded(
          *b.csr, apps::PageRank{.rounds = kPageRankRounds}, capped);
      if (!r.ok()) {
        throw std::runtime_error("shard.fixed_s probe failed");
      }
      return seconds_since(t0);
    });
  }
}

double timed_host_ref(Bench& b) {
  const ScopedSpan span(b.tracer, "host.ref");
  return host_ref_s();
}

/// The per-layer metrics, in BENCHMARK.json order; writes the trace file.
std::vector<Metric> layer_metrics(Bench& b,
                                  std::map<App, std::vector<double>>& untraced,
                                  std::map<App, std::vector<double>>& traced,
                                  const std::vector<double>& host_ref) {
  const double fixed_s = median(b.layer["shard.fixed_s"]);
  double traced_sum = 0.0;
  double untraced_sum = 0.0;
  for (const App app : kApps) {
    traced_sum += median(traced[app]);
    untraced_sum += median(untraced[app]);
    const double runs = median(b.layer[suffixed("shard.runs", app)]);
    const double steps = median(b.layer[suffixed("shard.supersteps", app)]);
    const double job = median(b.layer[suffixed("shard.job_s", app)]);
    b.sample(suffixed("shard.per_superstep_ms", app),
             (job - runs * fixed_s) / std::max(1.0, steps - runs) * 1e3);
  }

  for (const auto& [name, self] : b.tracer.self_seconds()) {
    std::cerr << "# self " << name << " " << self << " s\n";
  }
  if (!b.args.trace_out.empty() &&
      !b.tracer.write_chrome_json(b.args.trace_out)) {
    std::cerr << "cannot write " << b.args.trace_out << "\n";
    ++b.failed;
  }

  std::vector<Metric> metrics;
  const auto m = [&](const std::string& name, const char* unit) {
    metrics.push_back({name, median(b.layer[name]), unit});
  };
  m("graph.generate_s", "s");
  m("graph.csr_build_s", "s");
  m("store.build_s", "s");
  for (const App app : kApps) {
    m(suffixed("engine.construct_s", app), "s");
    m(suffixed("engine.run_s", app), "s");
    m(suffixed("engine.loop_gap_s", app), "s");
    m(suffixed("engine.superstep_us.p50", app), "us");
    m(suffixed("engine.superstep_us.max", app), "us");
    m(suffixed("engine.active_ratio", app), "ratio");
    m(suffixed("engine.supersteps", app), "count");
    m(suffixed("engine.messages", app), "count");
    m(suffixed("engine.executed_vertices", app), "count");
  }
  m("runtime.dispatch_us", "us");
  for (std::size_t i = 0; i < kTrackedCategories; ++i) {
    metrics.push_back({std::string("runtime.tracked_peak_mb.") +
                           kTrackedNames[i],
                       mib(b.tracked_peak[i]), "MiB"});
  }
  for (const App app : kApps) {
    m(suffixed("paged.run_s", app), "s");
    m(suffixed("cache.pins", app), "count");
    m(suffixed("cache.misses", app), "count");
    m(suffixed("cache.evictions", app), "count");
    m(suffixed("cache.peak_resident_mb", app), "MiB");
  }
  m("cache.pin_ns.t1", "ns");
  m("cache.pin_ns.t2", "ns");
  m("shard.fixed_s", "s");
  for (const App app : kApps) {
    m(suffixed("shard.per_superstep_ms", app), "ms");
    m(suffixed("shard.supersteps", app), "count");
    m(suffixed("shard.messages", app), "count");
  }
  m("shard.ring_gbps", "GB/s");
  m("shard.ctrl_rtt_us", "us");
  const auto& respawns = b.layer["shard.respawns"];
  metrics.push_back({"shard.respawns",
                     std::accumulate(respawns.begin(), respawns.end(), 0.0),
                     "count"});
  metrics.push_back({"host.ref_s", median(host_ref), "s"});
  metrics.push_back(
      {"trace.overhead_frac", traced_sum / untraced_sum - 1.0, "ratio"});
  return metrics;
}

int run(const Args& args) {
  pin_to_last_cpus();  // before any thread exists
  Bench b(args);
  const WorkloadSpec& spec = b.spec();
  const bool trace = args.trace;
  std::filesystem::create_directories(args.work_dir);
  b.store_path = (std::filesystem::path(args.work_dir) /
                  (std::string(spec.name) + "-" +
                   std::to_string(::getpid()) + ".pages"))
                     .string();
  std::vector<double> host_ref{timed_host_ref(b)};

  // Set-up, repeated so its median is steady. Only its own result stays.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (std::size_t rep = 0;
       rep < kSetupReps || (setup_total < kMinSetupSeconds && rep < 64);
       ++rep) {
    const auto t0 = Clock::now();
    if (spec.backend == Backend::kPaged) {
      timed_store_build(b);
    } else {
      timed_csr_build(b);
    }
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  }

  // References. The paged workload builds a CSR only for them and frees it
  // before any job runs.
  if (spec.backend == Backend::kPaged) {
    timed_csr_build(b);
  }
  compute_references(b);
  const std::size_t vertices =
      b.csr->num_slots() - b.csr->first_slot();
  if (spec.backend == Backend::kPaged) {
    b.csr.reset();
  }

  for (const App app : kApps) {
    (void)run_job(b, spec.backend, app, false);  // warm-up, untimed
  }

  reset_peak_rss();
  const std::size_t inherited = runtime::read_vm_rss_bytes();
  std::map<App, std::vector<double>> untraced_s;
  std::map<App, std::vector<double>> traced_s;
  b.sample_tracked = true;
  const auto t0 = Clock::now();
  for (std::size_t round = 0;; ++round) {
    for (const App app : kApps) {
      const auto turn0 = Clock::now();
      do {
        untraced_s[app].push_back(
            run_job(b, spec.backend, app, false).seconds);
        if (trace) {
          const JobResult jr = run_job(b, spec.backend, app, true);
          traced_s[app].push_back(jr.seconds);
          sample_job(b, spec.backend, app, jr, vertices);
        }
      } while (seconds_since(turn0) < kMinTurnSeconds);
    }
    host_ref.push_back(timed_host_ref(b));
    // A traced round runs every job twice, so it needs fewer rounds.
    if (round + 1 >= (trace ? kMinRounds - 1 : kMinRounds) &&
        seconds_since(t0) >= args.seconds) {
      break;
    }
  }
  const double peak_rss_mb =
      sample_peak_rss_mb(inherited, spec.backend == Backend::kShard);
  b.sample_tracked = false;

  for (const App app : kApps) {
    const auto& t = untraced_s[app];
    std::cerr << "# " << app_name(app) << ": " << t.size() << " jobs, min "
              << *std::min_element(t.begin(), t.end()) << " median "
              << median(t) << " max " << max_of(t) << " s\n";
  }
  std::cerr << "# host.ref_s " << median(host_ref) << "\n";

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {{"setup_s", median(setup_s), "s"},
               {"peak_rss_mb", peak_rss_mb, "MiB"},
               {"pagerank_s", median(untraced_s[App::kPageRank]), "s"},
               {"hashmin_s", median(untraced_s[App::kHashmin]), "s"},
               {"sssp_s", median(untraced_s[App::kSssp]), "s"}};
  } else {
    run_other_backends(b, vertices);
    run_probes(b, vertices);
    metrics = layer_metrics(b, untraced_s, traced_s, host_ref);
  }

  b.store.reset();
  std::filesystem::remove(b.store_path);
  print_result(b, metrics);
  return b.failed == 0 ? 0 : 1;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = find_workload(value);
      if (a.workload == nullptr) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument '" + key + "'");
    }
  }
  if (a.workload == nullptr || !have_seed || !(a.seconds > 0.0) ||
      a.work_dir.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --work-dir <dir> [--trace-out <file>]");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
