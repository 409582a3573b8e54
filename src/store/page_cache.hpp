#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/memory_tracker.hpp"
#include "store/paged_store.hpp"

namespace ipregel::store {

/// Tuning and policy knobs for the page cache.
struct PageCacheOptions {
  /// Ceiling on resident page bytes, charged to the memory-reservation
  /// ledger (MemCategory::kPageCache) frame by frame. The cache NEVER
  /// holds more than this; when every resident page is pinned and a new
  /// one is needed, it fails typed (kBudgetExhausted) instead of
  /// overrunning the reservation. The budget, the ledger charge and
  /// PageCacheStats::resident_bytes count payload slots (page_bytes() per
  /// frame) only: each frame also holds its page's kPageHeaderBytes
  /// header, uncharged — 0.02% on top at 64 KiB pages, 25% at 64-byte
  /// ones.
  std::size_t budget_bytes = std::size_t{1} << 20;
  /// Contiguous pages fetched speculatively after a demand miss (same
  /// file order the sections are laid out in). Read-ahead only fills
  /// SPARE budget — it never evicts — and is the first thing the
  /// degradation ladder turns off.
  std::size_t read_ahead_pages = 2;
  /// Re-reads after a failed page attempt before the failure is terminal
  /// (kRetriesExhausted). io::PowerLoss is never retried.
  std::size_t max_retries = 2;
  /// Demand accesses per miss-rate sample window.
  std::size_t thrash_window = 256;
  /// Window miss rate at/above which the window counts as thrashing.
  double high_miss_rate = 0.95;
  /// Window miss rate below which the ladder steps back down.
  double low_miss_rate = 0.50;
  /// Consecutive thrashing windows before the ladder escalates a level.
  std::size_t ladder_patience = 2;
  /// Rung-3 pressure relief: asked to shed external work (the service
  /// layer points this at JobManager::shed_weakest_queued). Returns
  /// whether anything was shed. Called outside the cache lock.
  std::function<bool(const std::string&)> shed{};
};

/// Cumulative cache counters (a snapshot; taken under the cache lock).
struct PageCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t retries = 0;           ///< extra read attempts that were made
  std::size_t crc_failures = 0;      ///< reads rejected by the page seal
  std::size_t io_failures = 0;       ///< reads rejected by the transport
  std::size_t quarantine_events = 0; ///< pages entering quarantine
  std::size_t quarantine_refetches = 0;  ///< quarantined pages re-read clean
  std::size_t read_ahead_loaded = 0;
  std::size_t resident_pages = 0;
  std::size_t resident_bytes = 0;
  std::size_t peak_resident_bytes = 0;
  std::size_t pinned_pages = 0;  ///< resident frames with a pin held now
  std::size_t level = 0;  ///< current degradation-ladder rung
};

/// One recorded ladder transition (or rung-3 shed request) — the paging
/// analogue of service::DegradationLog: sustained thrash must leave an
/// auditable trail, not just different timings.
struct CacheDegradationEvent {
  std::size_t from_level = 0;
  std::size_t to_level = 0;
  double miss_rate = 0.0;
  std::string detail;
};

/// Pinning LRU cache of verified store pages, budget-charged to the
/// memory ledger, with bounded retry, quarantine-and-refetch, and a
/// miss-rate-driven degradation ladder.
///
/// The ladder (climbed after `ladder_patience` consecutive windows at or
/// above `high_miss_rate`, descended when a window drops below
/// `low_miss_rate`):
///
///   level 0  normal: LRU retention + read-ahead
///   level 1  read-ahead off (speculative bytes are the cheapest to give
///            up; a thrashing scan was not using them anyway)
///   level 2  retention off: a page is dropped the moment its last pin
///            is released, so the budget serves only the pages actually
///            under computation (graceful degradation to "stream, don't
///            cache")
///   level 3  external shedding: the configured `shed` hook is asked to
///            release memory elsewhere (the JobManager evicts its least
///            important queued job), once per thrashing window
///
/// Failure ladder per page: read -> verify seal -> on damage retry up to
/// `max_retries` times (CRC failures additionally quarantine the page:
/// the damaged copy is never cached or served, and a later clean read is
/// counted as a refetch) -> typed kRetriesExhausted. A power cut
/// propagates immediately as io::PowerLoss, untyped-unwrapped, unretried.
///
/// Thread-safe; one lock serialises metadata AND misses' disk reads
/// (correctness over concurrency — the streaming superstep measures its
/// slowdown curve against this, honestly).
class PageCache {
 public:
  PageCache(const PagedStore& store, PageCacheOptions options);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// RAII pin on one verified resident page. The payload pointer stays
  /// valid (and the page stays resident) until destruction. Move-only.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { swap(other); }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        swap(other);
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    /// The page's verified payload (logical length, padding excluded).
    [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::uint64_t page() const noexcept { return page_; }

   private:
    friend class PageCache;
    Pin(PageCache* cache, std::uint64_t page, const std::uint8_t* data,
        std::size_t size) noexcept
        : cache_(cache), page_(page), data_(data), size_(size) {}
    void release() noexcept {
      if (cache_ != nullptr) {
        cache_->unpin(page_);
        cache_ = nullptr;
      }
    }
    void swap(Pin& other) noexcept {
      std::swap(cache_, other.cache_);
      std::swap(page_, other.page_);
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
    }

    PageCache* cache_ = nullptr;
    std::uint64_t page_ = 0;
    const std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Returns a pinned, seal-verified copy of page `index`, fetching (and
  /// possibly retrying / evicting / reading ahead) as needed. Throws a
  /// typed PageError; propagates io::PowerLoss.
  [[nodiscard]] Pin pin(std::uint64_t index);

  [[nodiscard]] PageCacheStats stats() const;
  [[nodiscard]] std::vector<CacheDegradationEvent> degradation_events() const;
  [[nodiscard]] std::size_t level() const;
  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return options_.budget_bytes;
  }
  /// Whether `index` is resident right now (tests only).
  [[nodiscard]] bool contains(std::uint64_t index) const;

 private:
  struct Frame {
    /// The page as stored (header, then slot), verified in place.
    std::unique_ptr<std::uint8_t[]> page;
    std::span<const std::uint8_t> payload;  ///< into `page`
    std::size_t pins = 0;
    std::list<std::uint64_t>::iterator lru;
    runtime::MemReservation charge;
  };

  void unpin(std::uint64_t index) noexcept;
  /// Evicts unpinned LRU frames until a new page fits the budget; throws
  /// kBudgetExhausted when pinned frames alone leave no room.
  void make_room_locked();
  void evict_locked(std::uint64_t index);
  /// One seal-verified read, with the bounded retry/quarantine ladder,
  /// into a new (not yet inserted) frame.
  Frame load_with_retries_locked(std::uint64_t index);
  Frame& insert_frame_locked(std::uint64_t index, Frame loaded);
  void read_ahead_locked(std::uint64_t after);
  /// Window bookkeeping; returns a shed request detail when rung 3 fired
  /// (the callback runs outside the lock).
  [[nodiscard]] std::string note_access_locked(bool hit);

  const PagedStore& store_;
  PageCacheOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Frame> frames_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  std::unordered_set<std::uint64_t> quarantined_;
  PageCacheStats stats_;
  std::vector<CacheDegradationEvent> events_;
  std::size_t level_ = 0;
  std::size_t window_accesses_ = 0;
  std::size_t window_misses_ = 0;
  std::size_t hot_windows_ = 0;
};

}  // namespace ipregel::store
