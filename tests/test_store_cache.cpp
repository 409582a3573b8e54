// PageCache invariants: the ledger charge exactly tracks resident bytes
// through eviction storms, pins block eviction (and never go negative),
// the budget is a hard ceiling with a typed failure when pins alone fill
// it, quarantined pages are re-fetched rather than re-served, and the
// degradation ladder climbs and descends on the documented watermarks.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "apps/pagerank.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
#include "runtime/memory_tracker.hpp"
#include "service/job_manager.hpp"
#include "store/page_cache.hpp"
#include "store/page_error.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"

namespace ipregel::store {
namespace {

using graph::CsrGraph;
using io::FaultyVfs;

constexpr const char* kPath = "/cache/graph.pages";
constexpr std::size_t kPage = 64;

/// Writes a store with plenty of pages (cycle: one u64 offset array plus
/// u32 target arrays) and returns the vfs it lives on.
FaultyVfs& make_store(FaultyVfs& vfs, std::size_t n = 512) {
  const CsrGraph g = CsrGraph::build(
      graph::cycle_graph(static_cast<graph::vid_t>(n)),
      {.addressing = graph::AddressingMode::kOffset, .build_in_edges = true});
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  return vfs;
}

std::size_t ledger_bytes() {
  return runtime::MemoryTracker::instance().bytes(
      runtime::MemCategory::kPageCache);
}

TEST(PageCache, LedgerChargeExactlyTracksResidentBytes) {
  FaultyVfs vfs;
  make_store(vfs);
  const std::size_t before = ledger_bytes();
  {
    const PagedStore store(vfs, kPath);
    ASSERT_GE(store.num_pages(), 16u);
    PageCache cache(store, {.budget_bytes = 4 * kPage,
                            .read_ahead_pages = 0});
    // Eviction storm: stream every page through a 4-page budget, twice.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t p = 0; p < store.num_pages(); ++p) {
        const PageCache::Pin pin = cache.pin(p);
        const PageCacheStats s = cache.stats();
        EXPECT_EQ(s.resident_bytes, s.resident_pages * kPage);
        EXPECT_EQ(ledger_bytes() - before, s.resident_bytes);
        EXPECT_LE(s.resident_bytes, cache.budget_bytes());
      }
    }
    const PageCacheStats s = cache.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_LE(s.peak_resident_bytes, cache.budget_bytes());
  }
  // Cache destroyed: every charge released, never negative (a double
  // release would clamp and be visible as a mismatch here).
  EXPECT_EQ(ledger_bytes(), before);
}

TEST(PageCache, PinsBlockEvictionAndBudgetFailureIsTyped) {
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 2 * kPage, .read_ahead_pages = 0});
  std::vector<PageCache::Pin> pins;
  pins.push_back(cache.pin(0));
  pins.push_back(cache.pin(1));
  EXPECT_EQ(cache.stats().pinned_pages, 2u);
  // Both frames pinned: a third distinct page cannot be admitted.
  try {
    (void)cache.pin(2);
    FAIL() << "cache overran its budget while every frame was pinned";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBudgetExhausted);
  }
  // Re-pinning a resident page is fine (no new frame needed) …
  { const PageCache::Pin again = cache.pin(0); }
  EXPECT_EQ(cache.stats().pinned_pages, 2u);  // frames, not pins
  // … and releasing one pin makes room again.
  pins.pop_back();
  EXPECT_EQ(cache.stats().pinned_pages, 1u);
  EXPECT_NO_THROW((void)cache.pin(2));
  EXPECT_TRUE(cache.contains(0));  // still pinned, never evicted
  const PageCacheStats s = cache.stats();
  EXPECT_LE(s.resident_bytes, cache.budget_bytes());
}

TEST(PageCache, UnmatchedUnpinIsSaturating) {
  // Pin released twice via move semantics cannot drive the count negative:
  // moved-from Pins release nothing, and the cache ignores a stray unpin.
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * kPage, .read_ahead_pages = 0});
  PageCache::Pin a = cache.pin(0);
  PageCache::Pin b = std::move(a);
  PageCache::Pin c;
  c = std::move(b);
  // Only `c` holds the pin now; destroying all three releases exactly one.
  a = PageCache::Pin();
  b = PageCache::Pin();
  c = PageCache::Pin();
  EXPECT_EQ(cache.stats().pinned_pages, 0u);
  // The frame is unpinned and evictable — stream enough pages to force it
  // out; if the pin count had gone negative this would wedge or throw.
  for (std::uint64_t p = 1; p < 9; ++p) {
    (void)cache.pin(p);
  }
  EXPECT_FALSE(cache.contains(0));
}

TEST(PageCache, HitsMissesAndLruRetention) {
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * kPage, .read_ahead_pages = 0});
  (void)cache.pin(0);
  (void)cache.pin(1);
  (void)cache.pin(0);  // hit
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  // 0 was touched most recently: filling the budget must evict 1 first.
  (void)cache.pin(2);
  (void)cache.pin(3);
  (void)cache.pin(4);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(PageCache, ReadAheadFillsSpareBudgetOnly) {
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * kPage, .read_ahead_pages = 8});
  (void)cache.pin(0);
  const PageCacheStats s = cache.stats();
  // The demand page plus at most 3 speculative ones: read-ahead stops at
  // the budget instead of evicting.
  EXPECT_LE(s.resident_bytes, cache.budget_bytes());
  EXPECT_GT(s.read_ahead_loaded, 0u);
  EXPECT_LE(s.read_ahead_loaded, 3u);
  EXPECT_TRUE(cache.contains(1));
  // A read-ahead page served later is a hit, not a second disk read.
  (void)cache.pin(1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PageCache, QuarantinedPageIsRefetchedNotReserved) {
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 8 * kPage,
                          .read_ahead_pages = 0,
                          .max_retries = 2});
  // Torn page on the next read: the damaged copy must never be served —
  // the cache quarantines it and retries, and the retry's clean bytes are
  // what the pin exposes.
  vfs.set_read_plan({FaultyVfs::ReadFaultKind::kTornPage, 1});
  const PageCache::Pin pin = cache.pin(0);
  // Compare against an undisturbed read of the same page.
  std::vector<std::uint8_t> clean(store.page_stride());
  const auto payload = store.read_page(0, clean.data());
  ASSERT_EQ(pin.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(pin.data(), payload.data(), payload.size()));
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.crc_failures, 1u);
  EXPECT_EQ(s.quarantine_events, 1u);
  EXPECT_EQ(s.quarantine_refetches, 1u);
  EXPECT_GE(s.retries, 1u);
}

TEST(PageCache, TransientReadFaultIsRetriedTransparently) {
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 8 * kPage,
                          .read_ahead_pages = 0,
                          .max_retries = 2});
  // A one-shot EIO: the first attempt fails, the bounded retry succeeds,
  // the caller never notices.
  vfs.set_read_plan({FaultyVfs::ReadFaultKind::kReadEio, 1});
  const PageCache::Pin pin = cache.pin(0);
  EXPECT_GT(pin.size(), 0u);
  const PageCacheStats s = cache.stats();
  EXPECT_EQ(s.io_failures, 1u);
  EXPECT_GE(s.retries, 1u);
}

TEST(PageCache, RetriesAreBoundedAndTyped) {
  // A deterministically unreadable page (file torn mid-page): every
  // attempt fails, so after max_retries the failure must surface as
  // kRetriesExhausted — typed, never a hang.
  FaultyVfs vfs;
  {
    const CsrGraph g = CsrGraph::build(
        graph::cycle_graph(64),
        {.addressing = graph::AddressingMode::kOffset,
         .build_in_edges = true});
    write_store(g, kPath, &vfs, {.page_bytes = kPage});
    std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
    bytes.resize(bytes.size() - kPage / 2);  // tear the last page off
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    f->write(bytes.data(), bytes.size());
    f->close();
  }
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 8 * kPage,
                          .read_ahead_pages = 0,
                          .max_retries = 2});
  const std::uint64_t last = store.num_pages() - 1;
  try {
    (void)cache.pin(last);
    FAIL() << "served a page that cannot be read intact";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kRetriesExhausted);
    EXPECT_EQ(e.attempts(), 3u);  // 1 try + 2 retries
  }
  EXPECT_FALSE(cache.contains(last));
  EXPECT_GE(cache.stats().retries, 2u);
}

TEST(PageCache, DegradationLadderClimbsAndDescends) {
  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  bool shed_called = false;
  PageCache cache(store,
                  {.budget_bytes = 2 * kPage,
                   .read_ahead_pages = 4,
                   .thrash_window = 16,
                   .high_miss_rate = 0.90,
                   .low_miss_rate = 0.50,
                   .ladder_patience = 2,
                   .shed = [&shed_called](const std::string& detail) {
                     EXPECT_FALSE(detail.empty());
                     shed_called = true;
                     return true;
                   }});
  ASSERT_EQ(cache.level(), 0u);
  // Thrash: a scan over far more pages than the budget holds — every
  // access is a miss. Each rung needs ladder_patience windows.
  const std::uint64_t n = store.num_pages();
  std::uint64_t p = 0;
  const auto thrash_accesses = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      (void)cache.pin(p % n);
      p += 7;  // stride far wider than the 2-page budget
    }
  };
  thrash_accesses(2 * 16);
  EXPECT_EQ(cache.level(), 1u);  // read-ahead off
  thrash_accesses(2 * 16);
  EXPECT_EQ(cache.level(), 2u);  // retention off
  // At level 2 an unpinned page is dropped immediately.
  (void)cache.pin(0);
  EXPECT_FALSE(cache.contains(0));
  thrash_accesses(2 * 16);
  EXPECT_EQ(cache.level(), 3u);  // external shedding
  EXPECT_TRUE(shed_called);
  // Recovery: repeated hits on one resident page drop the miss rate below
  // the low watermark and the ladder steps back down, one rung per calm
  // window.
  std::vector<PageCache::Pin> hold;
  hold.push_back(cache.pin(0));  // pinned: resident even at level >= 2
  for (int i = 0; i < 3 * 16; ++i) {
    (void)cache.pin(0);
  }
  EXPECT_LT(cache.level(), 3u);
  const auto events = cache.degradation_events();
  ASSERT_GE(events.size(), 4u);  // 3 up + at least 1 down
  EXPECT_EQ(events[0].from_level, 0u);
  EXPECT_EQ(events[0].to_level, 1u);
  EXPECT_GE(events[0].miss_rate, 0.90);
  for (const CacheDegradationEvent& e : events) {
    EXPECT_FALSE(e.detail.empty());
  }
}

TEST(PageCache, ShedHookReachesTheJobManager) {
  // The rung-3 wiring the ISSUE asks for: sustained thrash relieves
  // pressure through JobManager::shed_weakest_queued, which sheds the
  // least important queued job with a typed reason and an audit record.
  service::JobManager::Config cfg;
  cfg.executors = 1;
  cfg.team_threads = 1;
  service::JobManager manager(cfg);

  FaultyVfs vfs;
  make_store(vfs);
  const PagedStore store(vfs, kPath);
  PageCache cache(store,
                  {.budget_bytes = 2 * kPage,
                   .read_ahead_pages = 0,
                   .thrash_window = 8,
                   .high_miss_rate = 0.90,
                   .low_miss_rate = 0.10,
                   .ladder_patience = 1,
                   .shed = [&manager](const std::string& detail) {
                     return manager.shed_weakest_queued(detail);
                   }});
  // Nothing queued: the hook reports false, the cache stays at rung 3
  // without crashing, and the manager records nothing.
  const std::uint64_t n = store.num_pages();
  for (std::uint64_t i = 0; i < 64; ++i) {
    (void)cache.pin((i * 7) % n);
  }
  EXPECT_EQ(cache.level(), 3u);
  EXPECT_EQ(manager.stats().shed, 0u);
}

TEST(JobManagerShed, ShedWeakestQueuedPicksTheLowestPriority) {
  // Directly exercise the relief valve: with no executors free, queued
  // jobs pile up; shedding must evict the weakest one, typed and logged.
  service::JobManager::Config cfg;
  cfg.executors = 1;
  cfg.team_threads = 1;
  cfg.max_queue_depth = 8;
  service::JobManager manager(cfg);
  EXPECT_FALSE(manager.shed_weakest_queued("empty queue"));

  const CsrGraph g = CsrGraph::build(
      graph::cycle_graph(512),
      {.addressing = graph::AddressingMode::kOffset, .build_in_edges = true});
  constexpr VersionId kPull{CombinerKind::kPull, false};
  // A long-ish job to occupy the sole executor, then two queued ones.
  // Its priority sits between the two queued jobs' so the weakest is
  // `low` whether or not the executor has already popped it.
  auto hog = manager.submit(g, apps::PageRank{.rounds = 200}, kPull, {},
                            service::JobSpec{.priority = 5});
  auto low = manager.submit(g, apps::PageRank{.rounds = 200}, kPull, {},
                            service::JobSpec{.priority = 1});
  auto high = manager.submit(g, apps::PageRank{.rounds = 5}, kPull, {},
                             service::JobSpec{.priority = 9});
  EXPECT_TRUE(manager.shed_weakest_queued("cache thrash relief"));
  const service::JobReport& low_report = low.wait();
  EXPECT_EQ(low_report.state, service::JobState::kShed);
  ASSERT_TRUE(low_report.shed_reason.has_value());
  EXPECT_EQ(*low_report.shed_reason, service::ShedReason::kPriorityEvicted);
  EXPECT_EQ(high.wait().state, service::JobState::kCompleted);
  EXPECT_EQ(hog.wait().state, service::JobState::kCompleted);
  // The audit trail names the detail we passed.
  bool found = false;
  for (const auto& rec : manager.degradation_log().events()) {
    if (rec.step == service::DegradationStep::kShedQueued &&
        rec.detail == "cache thrash relief") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ipregel::store
