#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/vfs.hpp"
#include "store/page_error.hpp"
#include "store/page_format.hpp"

namespace ipregel::store {

/// Read-side handle on one paged store file: validates the superblock at
/// open, then serves individual sealed pages by index.
///
/// A PagedStore holds ONE open read handle and serves every page through
/// Vfs::File::read_at — positional reads have no cursor, so concurrent
/// readers (the cache under a multi-threaded superstep) cannot hand each
/// other's pages back. The store itself is stateless beyond the decoded
/// superblock; all caching, retrying, and quarantining policy lives in
/// PageCache. read_page() verifies the page's seal on EVERY read — a page
/// is either proven intact or reported as a typed PageError, never
/// returned on faith.
class PagedStore {
 public:
  /// Opens `path` and validates the superblock. Throws PageError
  /// (kBadSuperblock, or kIo/kShortRead for unreadable headers) and lets
  /// io::PowerLoss propagate untouched.
  PagedStore(io::Vfs& vfs, std::string path);

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  [[nodiscard]] const Superblock& superblock() const noexcept { return sb_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t page_bytes() const noexcept {
    return sb_.page_bytes;
  }
  [[nodiscard]] std::uint64_t num_pages() const noexcept {
    return sb_.num_pages();
  }
  /// Bytes of one page as stored: its header, then its payload slot.
  [[nodiscard]] std::size_t page_stride() const noexcept {
    return kPageHeaderBytes + page_bytes();
  }

  /// Reads page `index` whole into `page` (capacity >= page_stride()) and
  /// verifies its header and CRC seal in place, so the caller's buffer is
  /// the only copy. Returns the verified payload: the page's logical
  /// bytes, starting kPageHeaderBytes into `page`. Throws a typed
  /// PageError on any violation; io::PowerLoss propagates as itself (a
  /// dead disk is not a page problem and is never retried).
  std::span<const std::uint8_t> read_page(std::uint64_t index,
                                          std::uint8_t* page) const;

  /// Loads a whole section (every page verified) as a u64 / u32 element
  /// array. Used for the resident offset arrays at graph-open time and by
  /// tests comparing store contents against in-RAM CSR arrays.
  [[nodiscard]] std::vector<std::uint64_t> load_u64_section(Section s) const;
  [[nodiscard]] std::vector<std::uint32_t> load_u32_section(Section s) const;

 private:
  void load_section_bytes(Section s, std::uint8_t* out,
                          std::size_t bytes) const;

  io::Vfs& vfs_;
  std::string path_;
  std::unique_ptr<io::Vfs::File> file_;
  Superblock sb_;
};

}  // namespace ipregel::store
