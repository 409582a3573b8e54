#include "store/page_cache.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace ipregel::store {

PageCache::PageCache(const PagedStore& store, PageCacheOptions options)
    : store_(store), options_(std::move(options)) {
  if (options_.budget_bytes < store_.page_bytes()) {
    throw std::invalid_argument(
        "page-cache budget (" + std::to_string(options_.budget_bytes) +
        " bytes) below a single page (" +
        std::to_string(store_.page_bytes()) + " bytes)");
  }
  if (options_.thrash_window == 0) {
    options_.thrash_window = 1;
  }
}

PageCache::Pin PageCache::pin(std::uint64_t index) {
  std::string shed_detail;
  Pin out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = frames_.find(index);
    if (it != frames_.end()) {
      Frame& frame = it->second;
      ++frame.pins;
      lru_.splice(lru_.begin(), lru_, frame.lru);
      ++stats_.hits;
      shed_detail = note_access_locked(/*hit=*/true);
      out = Pin(this, index, frame.payload.data(), frame.payload.size());
    } else {
      ++stats_.misses;
      make_room_locked();
      Frame& frame = insert_frame_locked(index, load_with_retries_locked(index));
      frame.pins = 1;
      shed_detail = note_access_locked(/*hit=*/false);
      if (level_ == 0 && options_.read_ahead_pages > 0) {
        read_ahead_locked(index);
      }
      out = Pin(this, index, frame.payload.data(), frame.payload.size());
    }
  }
  if (!shed_detail.empty() && options_.shed) {
    options_.shed(shed_detail);
  }
  return out;
}

void PageCache::unpin(std::uint64_t index) noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(index);
  if (it == frames_.end() || it->second.pins == 0) {
    // An unpin with no matching pin is a framework bug; stay saturating
    // (never negative) like the memory tracker rather than corrupting
    // the count.
    return;
  }
  Frame& frame = it->second;
  --frame.pins;
  if (frame.pins == 0 && level_ >= 2) {
    // Rung 2: no retention — the budget serves only pages actually under
    // computation.
    evict_locked(index);
  }
}

void PageCache::make_room_locked() {
  const std::size_t page = store_.page_bytes();
  while (stats_.resident_bytes + page > options_.budget_bytes) {
    // Evict from the cold end, skipping pinned frames.
    auto victim = lru_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (frames_.at(*it).pins == 0) {
        victim = std::prev(it.base());
        break;
      }
    }
    if (victim == lru_.end()) {
      throw PageError(PageErrorKind::kBudgetExhausted, store_.path(),
                      PageError::kNoPage, 1,
                      "every resident page is pinned; budget of " +
                          std::to_string(options_.budget_bytes) +
                          " bytes cannot admit another page");
    }
    evict_locked(*victim);
  }
}

void PageCache::evict_locked(std::uint64_t index) {
  auto it = frames_.find(index);
  lru_.erase(it->second.lru);
  stats_.resident_bytes -= store_.page_bytes();
  --stats_.resident_pages;
  ++stats_.evictions;
  frames_.erase(it);  // releases the frame's ledger charge
}

PageCache::Frame PageCache::load_with_retries_locked(std::uint64_t index) {
  // Uninitialised on purpose: the read overwrites every byte before any
  // is trusted, and a read that fails never becomes a frame.
  Frame frame;
  frame.page = std::make_unique_for_overwrite<std::uint8_t[]>(
      store_.page_stride());
  std::size_t attempts = 0;
  for (;;) {
    ++attempts;
    try {
      frame.payload = store_.read_page(index, frame.page.get());
      if (quarantined_.erase(index) > 0) {
        ++stats_.quarantine_refetches;
      }
      return frame;
    } catch (const PageError& e) {
      if (e.kind() == PageErrorKind::kBadCrc) {
        ++stats_.crc_failures;
        if (quarantined_.insert(index).second) {
          ++stats_.quarantine_events;
        }
      } else {
        ++stats_.io_failures;
      }
      if (!e.retryable() || attempts > options_.max_retries) {
        if (!e.retryable()) {
          throw;
        }
        throw PageError(PageErrorKind::kRetriesExhausted, store_.path(),
                        index, attempts, e.what());
      }
      ++stats_.retries;
    }
    // io::PowerLoss propagates out of read_page uncaught: a dead disk is
    // terminal, never retried.
  }
}

PageCache::Frame& PageCache::insert_frame_locked(std::uint64_t index,
                                                 Frame loaded) {
  Frame& frame = frames_[index];
  frame = std::move(loaded);
  lru_.push_front(index);
  frame.lru = lru_.begin();
  // Budgets count payload slots; the page header the frame also holds is
  // not charged (see PageCacheOptions::budget_bytes).
  frame.charge = runtime::MemReservation(runtime::MemCategory::kPageCache,
                                         store_.page_bytes());
  stats_.resident_bytes += store_.page_bytes();
  ++stats_.resident_pages;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  return frame;
}

void PageCache::read_ahead_locked(std::uint64_t after) {
  const std::uint64_t last =
      std::min<std::uint64_t>(after + options_.read_ahead_pages,
                              store_.num_pages() == 0
                                  ? 0
                                  : store_.num_pages() - 1);
  for (std::uint64_t p = after + 1; p <= last; ++p) {
    if (frames_.contains(p)) {
      continue;
    }
    // Speculative pages only fill spare budget — never evict for them.
    if (stats_.resident_bytes + store_.page_bytes() > options_.budget_bytes) {
      return;
    }
    Frame loaded;
    try {
      loaded = load_with_retries_locked(p);
    } catch (const PageError&) {
      // A failed speculation is not a failure of the demand access; the
      // page will be read (and retried, and typed) when actually needed.
      // (io::PowerLoss still propagates: the disk is gone either way.)
      return;
    }
    insert_frame_locked(p, std::move(loaded));
    ++stats_.read_ahead_loaded;
  }
}

std::string PageCache::note_access_locked(bool hit) {
  ++window_accesses_;
  if (!hit) {
    ++window_misses_;
  }
  if (window_accesses_ < options_.thrash_window) {
    return {};
  }
  const double rate = static_cast<double>(window_misses_) /
                      static_cast<double>(window_accesses_);
  window_accesses_ = 0;
  window_misses_ = 0;
  std::string shed_detail;
  if (rate >= options_.high_miss_rate) {
    ++hot_windows_;
    if (hot_windows_ >= options_.ladder_patience) {
      hot_windows_ = 0;
      const std::size_t from = level_;
      if (level_ < 3) {
        ++level_;
      }
      std::string detail;
      switch (level_) {
        case 1:
          detail = "read-ahead disabled";
          break;
        case 2:
          detail = "retention disabled (pinned pages only)";
          break;
        default:
          detail = "requesting external shed (paging pressure)";
          shed_detail = "page-cache thrash on " + store_.path() +
                        " (miss rate " + std::to_string(rate) + ")";
          break;
      }
      events_.push_back({from, level_, rate, std::move(detail)});
      stats_.level = level_;
    }
  } else if (rate < options_.low_miss_rate) {
    hot_windows_ = 0;
    if (level_ > 0) {
      const std::size_t from = level_;
      --level_;
      events_.push_back({from, level_, rate, "pressure receded"});
      stats_.level = level_;
    }
  } else {
    hot_windows_ = 0;
  }
  return shed_detail;
}

PageCacheStats PageCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  PageCacheStats out = stats_;
  out.pinned_pages = static_cast<std::size_t>(
      std::count_if(frames_.begin(), frames_.end(),
                    [](const auto& f) { return f.second.pins > 0; }));
  return out;
}

std::vector<CacheDegradationEvent> PageCache::degradation_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t PageCache::level() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

bool PageCache::contains(std::uint64_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return frames_.contains(index);
}

}  // namespace ipregel::store
