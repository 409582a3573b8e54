#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "ft/snapshot.hpp"

namespace ipregel::ft {

/// The one read-side discipline for a directory of sealed, atomically
/// published "<prefix><N><suffix>" files: engine and shard snapshots
/// (SnapshotDirectory below) and the sharded coordinator's run manifests
/// alike. io::AtomicFile never leaves a torn final-named file, but a disk
/// can still rot, so:
///
///  * list() sorts finished files by N numerically; ".tmp" leftovers,
///    ".quarantined" files and foreign names are invisible.
///  * newest_valid() walks newest-first and returns the first file the
///    caller's load callable accepts. A file it rejects (any exception
///    but io::PowerLoss) is QUARANTINED — renamed to "<path>.quarantined"
///    with the reason logged — so it stops shadowing older good files but
///    stays on disk for post-mortem.
///  * retain() keeps the newest `keep` files that validate, quarantining
///    failures on the way, and deletes everything older: a corrupt newest
///    file can never push the last good one out of the window. With every
///    file valid it deletes exactly what a name-based rule would. Files
///    this instance published or validated are not re-read.
///
/// A simulated power cut (io::PowerLoss) propagates from every method: a
/// dead disk is not an empty directory.
class RecoveryDirectory {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    std::string path;
  };

  /// Loads and fully validates one file; throws on any defect.
  using Load = std::function<void(io::Vfs&, const std::string& path)>;
  /// Atomically writes one complete file; throws on failure.
  using Write = std::function<void(io::Vfs&, const std::string& path)>;

  static constexpr std::uint64_t kNoLimit =
      std::numeric_limits<std::uint64_t>::max();

  /// `vfs` nullptr = the real filesystem; not owned. keep == 0 disables
  /// retention.
  RecoveryDirectory(std::string dir, std::string prefix, std::string suffix,
                    io::Vfs* vfs = nullptr, std::size_t keep = 0);

  [[nodiscard]] std::string path_for(std::uint64_t seq) const;
  /// N when `name` is "<prefix><N><suffix>" with N all decimal digits.
  [[nodiscard]] std::optional<std::uint64_t> parse(
      const std::string& name) const;
  /// Finished files, ascending by N. A missing directory is empty.
  [[nodiscard]] std::vector<Entry> list() const;

  /// The newest file with N <= at_most that `load` accepts, or nullopt.
  /// Files above `at_most` are neither loaded nor quarantined.
  std::optional<Entry> newest_valid(const Load& load,
                                    std::uint64_t at_most = kNoLimit);

  /// newest_valid() for a load callable that returns the parsed file:
  /// yields that value.
  template <typename F, typename T = std::invoke_result_t<
                            F&, io::Vfs&, const std::string&>>
  std::optional<T> load_newest(F&& load) {
    std::optional<T> value;
    (void)newest_valid([&](io::Vfs& vfs, const std::string& path) {
      value.emplace(load(vfs, path));
    });
    return value;
  }

  /// write(path_for(seq)), then retain(load).
  void publish(std::uint64_t seq, const Write& write, const Load& load);
  /// Deletes all but the newest `keep` files that validate.
  void retain(const Load& load);

  /// Files this instance quarantined so far.
  [[nodiscard]] std::size_t quarantined() const noexcept {
    return quarantined_;
  }

 private:
  bool load_or_quarantine(const Entry& entry, const Load& load);

  std::string dir_;
  std::string prefix_;
  std::string suffix_;
  io::Vfs* vfs_;
  std::size_t keep_;
  std::size_t quarantined_ = 0;
  std::set<std::uint64_t> validated_;
};

/// A checkpoint directory of "<basename>.<superstep>.ipsnap" files: the
/// snapshot binding of RecoveryDirectory, whose load callable is
/// read_snapshot plus an optional semantic Validator.
class SnapshotDirectory {
 public:
  struct Entry {
    std::uint64_t superstep = 0;
    std::string path;
  };
  /// A snapshot the walk accepted, with its parsed content.
  struct Loaded : Entry {
    EngineSnapshot snapshot;
  };

  /// Semantic validator layered on top of structural validation: given a
  /// fully parsed snapshot, nullptr when it is acceptable or a static
  /// reason when it is not (e.g. a value audit that catches a bit flip
  /// the CRC was computed over — corruption from BEFORE the write). Must
  /// not throw.
  using Validator = std::function<const char*(const EngineSnapshot&)>;

  /// `vfs` nullptr = the real filesystem; not owned. keep == 0 keeps
  /// every snapshot.
  explicit SnapshotDirectory(std::string dir,
                             const std::string& basename = "snapshot",
                             io::Vfs* vfs = nullptr, std::size_t keep = 2);

  [[nodiscard]] std::vector<Entry> list() const;
  /// The newest snapshot at or below superstep `at_most` that passes
  /// read_snapshot's checks and `validate`, or nullopt.
  [[nodiscard]] std::optional<Loaded> newest_valid(
      const Validator& validate = nullptr,
      std::uint64_t at_most = RecoveryDirectory::kNoLimit);
  /// Writes `snap` as the snapshot of its superstep, then prune()s.
  void publish(const EngineSnapshot& snap,
               const Validator& validate = nullptr);
  /// Deletes all but the newest `keep` snapshots that validate. With
  /// keep == 1 and a torn newest snapshot, a name-based prune would
  /// delete every good one; this keeps the newest good one.
  void prune(const Validator& validate = nullptr);

  [[nodiscard]] std::size_t quarantined() const noexcept {
    return dir_.quarantined();
  }

 private:
  RecoveryDirectory dir_;
};

}  // namespace ipregel::ft
