#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "graph/types.hpp"
#include "io/vfs.hpp"
#include "runtime/memory_tracker.hpp"
#include "store/page_cache.hpp"
#include "store/page_error.hpp"
#include "store/paged_store.hpp"

namespace ipregel::store {

/// The engine-facing view of a paged store: vertex-sized state resident,
/// edge-sized state streamed.
///
/// This is the split the beyond-RAM mode is built on. The offset arrays
/// are O(V) — the same budget class as the engine's values, mailboxes,
/// and halted flags, all of which stay resident by design — so they are
/// loaded (seal-verified) at construction and answer out_degree() /
/// in_degree() without touching the cache. The target arrays are O(E) —
/// the bytes that don't fit — so neighbour iteration walks their pages
/// through the PageCache, each worker through its own Cursor, which keeps
/// one page pinned across the vertices whose edges lie on it.
///
/// Iteration visits elements in exact CSR array order, which is what
/// makes a streaming pull gather combine in the same order as the in-RAM
/// engine — the heart of the bit-identity guarantee. It is also the whole
/// interface Engine needs from a topology, so a paged run is
/// `Engine<Program, Combiner, false, PagedGraph>`.
class PagedGraph {
 public:
  /// Loads the resident offset arrays (every page verified). Throws
  /// PageError on damage; propagates io::PowerLoss.
  PagedGraph(const PagedStore& store, PageCache& cache)
      : store_(store), cache_(cache), sb_(store.superblock()) {
    out_offsets_ = store_.load_u64_section(Section::kOutOffsets);
    if (sb_.has_in_edges()) {
      in_offsets_ = store_.load_u64_section(Section::kInOffsets);
    }
    offsets_mem_ = runtime::MemReservation(
        runtime::MemCategory::kGraphTopology,
        (out_offsets_.size() + in_offsets_.size()) * sizeof(std::uint64_t));
  }

  PagedGraph(const PagedGraph&) = delete;
  PagedGraph& operator=(const PagedGraph&) = delete;

  [[nodiscard]] PageCache& cache() const noexcept { return cache_; }

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return sb_.num_vertices;
  }
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return sb_.num_slots;
  }
  [[nodiscard]] std::size_t first_slot() const noexcept {
    return sb_.first_slot;
  }
  [[nodiscard]] graph::eid_t num_edges() const noexcept {
    return sb_.num_edges;
  }
  [[nodiscard]] bool has_in_edges() const noexcept {
    return sb_.has_in_edges();
  }

  [[nodiscard]] std::size_t slot_of(graph::vid_t id) const noexcept {
    return static_cast<std::size_t>(id - sb_.id_offset);
  }
  [[nodiscard]] graph::vid_t id_of(std::size_t slot) const noexcept {
    return static_cast<graph::vid_t>(slot) + sb_.id_offset;
  }

  [[nodiscard]] std::size_t out_degree(std::size_t slot) const noexcept {
    return out_offsets_[slot + 1] - out_offsets_[slot];
  }
  [[nodiscard]] std::size_t in_degree(std::size_t slot) const noexcept {
    return in_offsets_[slot + 1] - in_offsets_[slot];
  }

  /// True when `e` means an edge page could not be served: a typed
  /// PageError, or a transport io::IoError (io::PowerLoss included). The
  /// engine reports these as RunErrorKind::kPageError wherever a vertex
  /// hook hits them: the pull gather or a broadcast inside compute().
  [[nodiscard]] static bool is_page_failure(const std::exception& e) noexcept {
    return dynamic_cast<const PageError*>(&e) != nullptr ||
           dynamic_cast<const io::IoError*>(&e) != nullptr;
  }

  /// A worker's edge cursor: the one page it has pinned. Walks whose
  /// elements stay on that page reuse the pin; moving to another page
  /// releases it BEFORE pinning the next, so a worker never holds two
  /// pages and a budget of one page per worker suffices. The engine keeps
  /// one per pool thread and empties it at the end of every vertex range.
  using Cursor = PageCache::Pin;

  /// Calls `fn(vid_t target)` for every out-neighbour of `slot`, in CSR
  /// order, streaming the target pages through `cursor`.
  template <typename Fn>
  void for_each_out_target(std::size_t slot, Cursor& cursor, Fn&& fn) const {
    for_each_element(Section::kOutTargets, out_offsets_[slot],
                     out_offsets_[slot + 1], cursor, fn);
  }

  /// Calls `fn(vid_t source)` for every in-neighbour of `slot`, in CSR
  /// order (identical to CsrGraph::in_neighbours order).
  template <typename Fn>
  void for_each_in_neighbour(std::size_t slot, Cursor& cursor,
                             Fn&& fn) const {
    for_each_element(Section::kInTargets, in_offsets_[slot],
                     in_offsets_[slot + 1], cursor, fn);
  }

 private:
  /// Streams elements [begin, end) of a u32 section page by page through
  /// the cursor, delivering them in array order. page_bytes is a multiple
  /// of 8, so no element straddles a page boundary.
  template <typename Fn>
  void for_each_element(Section section, std::uint64_t begin,
                        std::uint64_t end, Cursor& cursor, Fn& fn) const {
    const SectionRef& ref = sb_.section(section);
    const std::size_t per_page = store_.page_bytes() / sizeof(graph::vid_t);
    std::uint64_t e = begin;
    while (e < end) {
      const std::uint64_t page_in_section = e / per_page;
      const std::uint64_t first_in_page = page_in_section * per_page;
      const std::uint64_t last = std::min<std::uint64_t>(
          end, first_in_page + per_page);
      const std::uint64_t page = ref.first_page + page_in_section;
      if (cursor.data() == nullptr || cursor.page() != page) {
        cursor = Cursor{};  // unpin first: never two pages per worker
        cursor = cache_.pin(page);
      }
      const auto* elems = reinterpret_cast<const graph::vid_t*>(cursor.data());
      for (; e < last; ++e) {
        fn(elems[e - first_in_page]);
      }
    }
  }

  const PagedStore& store_;
  PageCache& cache_;
  const Superblock& sb_;
  std::vector<std::uint64_t> out_offsets_;
  std::vector<std::uint64_t> in_offsets_;
  runtime::MemReservation offsets_mem_;
};

}  // namespace ipregel::store
