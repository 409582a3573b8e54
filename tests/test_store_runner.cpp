// The headline contract of the beyond-RAM mode: the engine over a paged
// store — even under a cache budget several times smaller than the edge
// arrays — produces BIT-IDENTICAL results to the engine over the resident
// CSR, at any thread count, and every paging failure surfaces as a typed
// RunError.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "ft/checkpoint.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
#include "store/page_cache.hpp"
#include "store/page_format.hpp"
#include "store/paged_graph.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"
#include "store/streaming_runner.hpp"

namespace ipregel::store {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using io::FaultyVfs;

constexpr const char* kPath = "/run/graph.pages";
constexpr std::size_t kPage = 128;

CsrGraph make_graph(const EdgeList& edges) {
  return CsrGraph::build(
      edges, {.addressing = graph::AddressingMode::kOffset,
              .build_in_edges = true});
}

/// Bytes of the store's streamed (edge-sized) sections — what the ">= 4x
/// the cache budget" headline is measured against.
std::uint64_t streamed_bytes(const PagedStore& store) {
  return store.superblock().section(Section::kOutTargets).payload_bytes +
         store.superblock().section(Section::kInTargets).payload_bytes;
}

TEST(StreamingRunner, PullPageRankBitIdenticalToEngine) {
  const CsrGraph g = make_graph(graph::rmat(8, 8, {.seed = 21}));
  Engine<apps::PageRank, CombinerKind::kPull, false> engine(
      g, apps::PageRank{.rounds = 20});
  const RunResult ref = engine.run();

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // A budget ~1/4 of the streamed bytes AND a roomy one: the answer may
    // not depend on how often the cache had to evict.
    for (const std::size_t budget :
         {std::size_t{4} * kPage, std::size_t{1} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      PageCache cache(store, {.budget_bytes = budget});
      PagedGraph pg(store, cache);
      StreamingRunner<apps::PageRank> runner(
          pg, apps::PageRank{.rounds = 20}, {.threads = threads});
      const PagedRunResult out = runner.run(StreamMode::kPull);
      ASSERT_EQ(out.run.supersteps, ref.supersteps);
      ASSERT_EQ(out.run.total_messages, ref.total_messages);
      for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
        ASSERT_EQ(runner.values()[s], engine.values()[s])
            << "slot " << s;  // EXACT double equality: bit-identity
      }
      if (budget == std::size_t{4} * kPage) {
        // The tiny budget really was beyond-RAM: the streamed sections
        // exceed it 4x over and eviction actually happened.
        EXPECT_GE(streamed_bytes(store), 4 * budget);
        EXPECT_GT(out.cache.evictions, 0u);
      }
    }
  }
}

/// Push mode against Engine<Program, kSpinlockPush> over the CSR, for an
/// order-insensitive program.
template <typename Program>
void expect_push_bit_identical(const char* name) {
  SCOPED_TRACE(name);
  const CsrGraph g = make_graph(graph::rmat(7, 6, {.seed = 5}));
  Engine<Program, CombinerKind::kSpinlockPush, false> engine(g);
  const RunResult ref = engine.run();

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PageCache cache(store, {.budget_bytes = 4 * kPage});
    PagedGraph pg(store, cache);
    StreamingRunner<Program> runner(pg, Program{}, {.threads = threads});
    const PagedRunResult out = runner.run(StreamMode::kPush);
    EXPECT_EQ(out.run.supersteps, ref.supersteps);
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      ASSERT_EQ(runner.values()[s], engine.values()[s]) << "slot " << s;
    }
  }
}

TEST(StreamingRunner, PushHashminBitIdenticalToEngine) {
  expect_push_bit_identical<apps::Hashmin>("hashmin");
  // The paged SSSP version the repository benchmark runs.
  expect_push_bit_identical<apps::Sssp>("sssp");
}

TEST(StreamingRunner, OffsetAddressedIdsWork) {
  EdgeList edges = graph::cycle_graph(200);
  graph::shift_ids(edges, 5000);
  const CsrGraph g = make_graph(edges);
  Engine<apps::Hashmin, CombinerKind::kPull, false> engine(g);
  (void)engine.run();

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::Hashmin> runner(pg);
  (void)runner.run(StreamMode::kPull);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(runner.values()[s], engine.values()[s]) << "slot " << s;
  }
  EXPECT_EQ(runner.value_of(5000), 5000u);
}

TEST(StreamingRunner, ResultsIndependentOfCacheBudget) {
  // Same run under wildly different budgets (and with the degradation
  // ladder certainly engaging at the smallest): values must stay
  // bit-identical — degradation changes timings, never answers.
  const CsrGraph g = make_graph(graph::rmat(7, 8, {.seed = 9}));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);

  std::vector<double> reference;
  for (const std::size_t budget :
       {std::size_t{2} * kPage, std::size_t{8} * kPage, std::size_t{1} << 22}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    PageCache cache(store, {.budget_bytes = budget,
                            .thrash_window = 64,
                            .ladder_patience = 1});
    PagedGraph pg(store, cache);
    StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 10});
    (void)runner.run(StreamMode::kPull);
    if (reference.empty()) {
      reference = runner.values();
    } else {
      ASSERT_EQ(runner.values(), reference);
    }
  }
}

TEST(StreamingRunner, PullModeValidatesItsPreconditions) {
  const CsrGraph g = CsrGraph::build(
      graph::cycle_graph(32),
      {.addressing = graph::AddressingMode::kOffset,
       .build_in_edges = false});
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::Hashmin> runner(pg);
  // No in-edge section in the store: the pull gather has nothing to
  // stream; push still works.
  EXPECT_THROW((void)runner.run(StreamMode::kPull), std::invalid_argument);
  EXPECT_NO_THROW((void)runner.run(StreamMode::kPush));
}

TEST(StreamingRunner, SuperstepCapIsReported) {
  const CsrGraph g = make_graph(graph::cycle_graph(64));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 30},
                                         {.max_supersteps = 3});
  const PagedRunResult out = runner.run(StreamMode::kPull);
  EXPECT_TRUE(out.run.reached_superstep_cap);
  EXPECT_EQ(out.run.supersteps, 3u);
}

TEST(StreamingRunner, CancelTokenFailsTyped) {
  const CsrGraph g = make_graph(graph::cycle_graph(64));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  std::atomic<bool> cancel{true};
  StreamingRunner<apps::PageRank> runner(
      pg, apps::PageRank{}, {.guards = {.cancel_token = &cancel}});
  const RunOutcome out = runner.run_checked(StreamMode::kPull);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kCancelled);
}

TEST(StreamingRunner, UnservablePageFailsTypedNotHung) {
  // Pull: the file is torn short, so its last page (in-targets) can never
  // be read whole once the gather reaches it. Push: the last out-target
  // page fails its seal, and the fault is raised inside compute()'s
  // broadcast — it must still be kPageError, never kUserException.
  for (const StreamMode mode : {StreamMode::kPull, StreamMode::kPush}) {
    SCOPED_TRACE(mode == StreamMode::kPull ? "pull" : "push");
    const CsrGraph g = make_graph(graph::cycle_graph(256));
    FaultyVfs vfs;
    write_store(g, kPath, &vfs, {.page_bytes = 64});
    {
      std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
      if (mode == StreamMode::kPull) {
        bytes.resize(bytes.size() - 8);
      } else {
        const PagedStore clean(vfs, kPath);
        const Superblock& sb = clean.superblock();
        const SectionRef& out = sb.section(Section::kOutTargets);
        bytes[sb.page_offset(out.first_page + out.num_pages - 1) +
              kPageHeaderBytes] ^= 0x01;
      }
      const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
      f->write(bytes.data(), bytes.size());
      f->close();
    }
    const PagedStore store(vfs, kPath);
    PageCache cache(store, {.budget_bytes = 4 * 64, .max_retries = 1});
    PagedGraph pg(store, cache);
    StreamingRunner<apps::Hashmin> runner(pg, apps::Hashmin{},
                                          {.threads = 2});
    const RunOutcome out = runner.run_checked(mode);
    ASSERT_TRUE(out.error.has_value());
    EXPECT_EQ(out.error->kind(), RunErrorKind::kPageError);
    // Every worker's cursor was released as the failure unwound its range.
    EXPECT_EQ(cache.stats().pinned_pages, 0u);
  }
}

/// One paged run at a budget of exactly one page per worker and no
/// read-ahead, checked against the engine's values: a cursor that pinned
/// its next page before releasing the last would fail kBudgetExhausted.
/// Pins are per page a worker walks onto, not per vertex, and none
/// survives run().
template <typename Program, CombinerKind Combiner>
void expect_one_pin_per_worker(const CsrGraph& g, const Program& program,
                               StreamMode mode, Section walked) {
  Engine<Program, Combiner, false> engine(g, program);
  (void)engine.run();
  constexpr std::size_t kCursorPage = 4 * kPage;
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kCursorPage});
  const PagedStore store(vfs, kPath);
  const std::size_t pages = store.superblock().section(walked).num_pages;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PageCache cache(store, {.budget_bytes = threads * kCursorPage,
                            .read_ahead_pages = 0});
    PagedGraph pg(store, cache);
    StreamingRunner<Program> runner(pg, program, {.threads = threads});
    const PagedRunResult out = runner.run(mode);
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      ASSERT_EQ(runner.values()[s], engine.values()[s]) << "slot " << s;
    }
    EXPECT_LE(out.cache.hits + out.cache.misses,
              pages * out.run.supersteps * threads);
    EXPECT_EQ(cache.stats().pinned_pages, 0u);
  }
}

TEST(StreamingRunner, CursorPinsOnePagePerWorker) {
  const CsrGraph g = make_graph(graph::rmat(8, 8, {.seed = 21}));
  {
    SCOPED_TRACE("pagerank pull");
    expect_one_pin_per_worker<apps::PageRank, CombinerKind::kPull>(
        g, apps::PageRank{.rounds = 10}, StreamMode::kPull,
        Section::kInTargets);
  }
  {
    SCOPED_TRACE("hashmin push");
    expect_one_pin_per_worker<apps::Hashmin, CombinerKind::kSpinlockPush>(
        g, apps::Hashmin{}, StreamMode::kPush, Section::kOutTargets);
  }
}

/// Broadcasts its id, and throws a non-std::exception at vertex 7 in
/// superstep 1.
struct ThrowsInt {
  using value_type = std::uint32_t;
  using message_type = std::uint32_t;
  static constexpr bool broadcast_only = true;
  static constexpr bool always_halts = true;

  value_type initial_value(graph::vid_t id) const { return id; }
  static void combine(message_type& old, const message_type& incoming) {
    old = std::min(old, incoming);
  }
  template <typename Ctx>
  void compute(Ctx& ctx) const {
    if (ctx.superstep() == 1 && ctx.id() == 7) {
      throw 7;
    }
    ctx.broadcast(ctx.value());
    ctx.vote_to_halt();
  }
};

TEST(StreamingRunner, NonStdExceptionFromComputeIsUserException) {
  const CsrGraph g = make_graph(graph::cycle_graph(64));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  for (const StreamMode mode : {StreamMode::kPull, StreamMode::kPush}) {
    SCOPED_TRACE(mode == StreamMode::kPull ? "pull" : "push");
    PageCache cache(store, {.budget_bytes = 4 * 64});
    PagedGraph pg(store, cache);
    StreamingRunner<ThrowsInt> runner(pg, ThrowsInt{}, {.threads = 2});
    RunOutcome out;
    ASSERT_NO_THROW(out = runner.run_checked(mode));
    ASSERT_TRUE(out.error.has_value());
    EXPECT_EQ(out.error->kind(), RunErrorKind::kUserException);
  }
}

/// The (executed, active, sent) sequence of a run's per-superstep record.
std::vector<std::array<std::size_t, 3>> records(const RunResult& r) {
  std::vector<std::array<std::size_t, 3>> out;
  for (const SuperstepStats& s : r.per_superstep) {
    out.push_back({s.executed_vertices, s.remaining_active, s.messages_sent});
  }
  return out;
}

TEST(StreamingRunner, PerSuperstepRecordMatchesEngine) {
  const CsrGraph g = make_graph(graph::rmat(7, 6, {.seed = 5}));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * kPage});
  PagedGraph pg(store, cache);
  {
    SCOPED_TRACE("pagerank pull");
    Engine<apps::PageRank, CombinerKind::kPull, false> engine(
        g, apps::PageRank{.rounds = 10}, {.collect_superstep_stats = true});
    const RunResult ref = engine.run();
    StreamingRunner<apps::PageRank> runner(
        pg, apps::PageRank{.rounds = 10},
        {.threads = 2, .collect_superstep_stats = true});
    const PagedRunResult out = runner.run(StreamMode::kPull);
    ASSERT_EQ(ref.per_superstep.size(), ref.supersteps);
    EXPECT_EQ(records(out.run), records(ref));
  }
  {
    SCOPED_TRACE("hashmin push");
    Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> engine(
        g, apps::Hashmin{}, {.collect_superstep_stats = true});
    const RunResult ref = engine.run();
    StreamingRunner<apps::Hashmin> runner(
        pg, apps::Hashmin{}, {.threads = 2, .collect_superstep_stats = true});
    const PagedRunResult out = runner.run(StreamMode::kPush);
    ASSERT_EQ(ref.per_superstep.size(), ref.supersteps);
    EXPECT_EQ(records(out.run), records(ref));
  }
}

TEST(StreamingRunner, CheckpointRejectedIntegrityTiersRun) {
  // Snapshots bind to a CSR fingerprint that a paged topology does not
  // have: rejected up front, never silently ignored. The integrity tiers
  // need none and run over pages, leaving the answer bit-identical.
  const CsrGraph g = make_graph(graph::rmat(6, 4, {.seed = 2}));
  Engine<apps::PageRank, CombinerKind::kPull, false> engine(
      g, apps::PageRank{.rounds = 8});
  (void)engine.run();
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 8 * kPage});
  PagedGraph pg(store, cache);

  PagedRunOptions checkpointed;
  checkpointed.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  checkpointed.checkpoint.every = 2;
  checkpointed.checkpoint.directory = "/ckpt";
  checkpointed.checkpoint.vfs = &vfs;
  StreamingRunner<apps::PageRank> rejected(pg, apps::PageRank{.rounds = 8},
                                           checkpointed);
  EXPECT_THROW((void)rejected.run(StreamMode::kPull), std::invalid_argument);

  PagedRunOptions audited;
  audited.integrity.invariants = true;
  audited.integrity.checksums = true;
  audited.integrity.shadow = true;
  StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 8},
                                         audited);
  (void)runner.run(StreamMode::kPull);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(runner.values()[s], engine.values()[s]) << "slot " << s;
  }
  // The shadow tier's barrier-side gather released its cursor too.
  EXPECT_EQ(cache.stats().pinned_pages, 0u);
}

TEST(StreamingRunner, RunnerIsReentrant) {
  // Two runs on the same runner give the same answer: run() reinitialises
  // all vertex state.
  const CsrGraph g = make_graph(graph::rmat(6, 4, {.seed = 2}));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 8 * kPage});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 8});
  (void)runner.run(StreamMode::kPull);
  const std::vector<double> first = runner.values();
  (void)runner.run(StreamMode::kPull);
  EXPECT_EQ(runner.values(), first);
}

}  // namespace
}  // namespace ipregel::store
