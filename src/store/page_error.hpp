#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ipregel::store {

/// What went wrong while serving a page from the beyond-RAM edge store.
///
/// The paging path has the same design rule as the rest of the failure
/// domain: every abnormal outcome is typed, so callers branch on the kind
/// instead of string-matching. The cache's retry ladder also *dispatches*
/// on it — a CRC failure is retried (the bytes may have been torn in
/// flight), a bad superblock is not (the file itself is wrong and will be
/// wrong again).
enum class PageErrorKind : std::uint8_t {
  /// The underlying Vfs read threw (EIO and friends). Transient on real
  /// hardware, so the cache retries it.
  kIo,
  /// The read returned fewer bytes than the page stride — the file is
  /// truncated or the device lied. Retried: a short read can be a
  /// transient artefact of the transport.
  kShortRead,
  /// The page header is structurally wrong: bad magic, an index that does
  /// not match the slot the page was read from, or a payload length above
  /// the page capacity. Retried once like a CRC failure (a torn read can
  /// shred the header too), typed on its own so diagnostics can tell
  /// "wrong bytes" from "damaged bytes".
  kBadHeader,
  /// Header parsed but the CRC32 seal over header+payload does not match:
  /// silent corruption between the writer's seal and this read. The cache
  /// quarantines the copy and refetches from disk.
  kBadCrc,
  /// The store file's superblock failed validation (magic, version, CRC,
  /// or impossible geometry). The file is unusable; never retried.
  kBadSuperblock,
  /// The bounded retry budget ran out without a clean copy of the page.
  /// What reaches the caller is deterministic — the same page will fail
  /// again — so this is a terminal, typed failure, not a hang.
  kRetriesExhausted,
  /// The cache could not make room inside its memory-ledger budget: every
  /// resident page is pinned. A configuration error (budget below the
  /// working set of concurrent pins), reported instead of overrunning the
  /// reservation.
  kBudgetExhausted,
};

[[nodiscard]] constexpr std::string_view to_string(PageErrorKind k) noexcept {
  switch (k) {
    case PageErrorKind::kIo:
      return "io";
    case PageErrorKind::kShortRead:
      return "short-read";
    case PageErrorKind::kBadHeader:
      return "bad-header";
    case PageErrorKind::kBadCrc:
      return "bad-crc";
    case PageErrorKind::kBadSuperblock:
      return "bad-superblock";
    case PageErrorKind::kRetriesExhausted:
      return "retries-exhausted";
    case PageErrorKind::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "invalid";
}

/// A typed paging failure: which page of which store file, what kind of
/// damage, and after how many read attempts. io::PowerLoss is deliberately
/// NOT wrapped into this — a dead disk must keep its dynamic type so the
/// chaos harness (and the no-retry rule) can recognise it.
class PageError : public std::runtime_error {
 public:
  /// Sentinel for failures with no single page (superblock, budget).
  static constexpr std::uint64_t kNoPage = static_cast<std::uint64_t>(-1);

  PageError(PageErrorKind kind, std::string path, std::uint64_t page,
            std::size_t attempts, const std::string& detail)
      : std::runtime_error(format(kind, path, page, attempts, detail)),
        kind_(kind),
        path_(std::move(path)),
        page_(page),
        attempts_(attempts) {}

  [[nodiscard]] PageErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t page() const noexcept { return page_; }
  /// Read attempts made before giving up (1 for unretried failures).
  [[nodiscard]] std::size_t attempts() const noexcept { return attempts_; }

  /// Whether one more read of the same page can plausibly return clean
  /// bytes: true for transport-level damage, false for structural
  /// verdicts about the file itself.
  [[nodiscard]] bool retryable() const noexcept {
    return kind_ == PageErrorKind::kIo ||
           kind_ == PageErrorKind::kShortRead ||
           kind_ == PageErrorKind::kBadHeader ||
           kind_ == PageErrorKind::kBadCrc;
  }

 private:
  [[nodiscard]] static std::string format(PageErrorKind kind,
                                          const std::string& path,
                                          std::uint64_t page,
                                          std::size_t attempts,
                                          const std::string& detail) {
    std::string out = "[page:";
    out += to_string(kind);
    out += "] ";
    out += path;
    if (page != kNoPage) {
      out += ", page " + std::to_string(page);
    }
    if (attempts > 1) {
      out += ", " + std::to_string(attempts) + " attempts";
    }
    out += ": " + detail;
    return out;
  }

  PageErrorKind kind_;
  std::string path_;
  std::uint64_t page_;
  std::size_t attempts_;
};

}  // namespace ipregel::store
