#include "ft/recovery_dir.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <utility>

#include "io/vfs.hpp"

namespace ipregel::ft {

RecoveryDirectory::RecoveryDirectory(std::string dir, std::string prefix,
                                     std::string suffix, io::Vfs* vfs,
                                     std::size_t keep)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      suffix_(std::move(suffix)),
      vfs_(vfs),
      keep_(keep) {}

std::string RecoveryDirectory::path_for(std::uint64_t seq) const {
  return dir_ + "/" + prefix_ + std::to_string(seq) + suffix_;
}

std::optional<std::uint64_t> RecoveryDirectory::parse(
    const std::string& name) const {
  if (name.size() <= prefix_.size() + suffix_.size() ||
      !name.starts_with(prefix_) || !name.ends_with(suffix_)) {
    return std::nullopt;
  }
  const char* last = name.data() + name.size() - suffix_.size();
  std::uint64_t n = 0;
  const auto [ptr, ec] = std::from_chars(name.data() + prefix_.size(), last, n);
  if (ec != std::errc{} || ptr != last) {
    return std::nullopt;
  }
  return n;
}

std::vector<RecoveryDirectory::Entry> RecoveryDirectory::list() const {
  std::vector<Entry> entries;
  std::vector<std::string> names;
  try {
    names = io::vfs_or_real(vfs_).list(dir_);
  } catch (const io::PowerLoss&) {
    throw;
  } catch (const io::IoError&) {
    return entries;  // a directory that was never created holds nothing
  }
  for (const std::string& name : names) {
    if (const auto seq = parse(name)) {
      entries.push_back(Entry{*seq, dir_ + "/" + name});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  return entries;
}

bool RecoveryDirectory::load_or_quarantine(const Entry& entry,
                                           const Load& load) {
  try {
    load(io::vfs_or_real(vfs_), entry.path);
    validated_.insert(entry.seq);
    return true;
  } catch (const io::PowerLoss&) {
    throw;  // the simulated machine died mid-recovery; no fallback
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ipregel: quarantining %s: %s\n", entry.path.c_str(),
                 e.what());
  }
  try {
    io::vfs_or_real(vfs_).rename(entry.path, entry.path + ".quarantined");
    ++quarantined_;
  } catch (const io::PowerLoss&) {
    throw;
  } catch (const io::IoError&) {
    // Cannot even rename it: leave it in place. The walk skips it now and
    // stumbles over it again next time, which is annoying but safe.
  }
  return false;
}

std::optional<RecoveryDirectory::Entry> RecoveryDirectory::newest_valid(
    const Load& load, std::uint64_t at_most) {
  const std::vector<Entry> entries = list();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->seq <= at_most && load_or_quarantine(*it, load)) {
      return *it;
    }
  }
  return std::nullopt;
}

void RecoveryDirectory::publish(std::uint64_t seq, const Write& write,
                                const Load& load) {
  write(io::vfs_or_real(vfs_), path_for(seq));
  validated_.insert(seq);
  retain(load);
}

void RecoveryDirectory::retain(const Load& load) {
  if (keep_ == 0) {
    return;
  }
  const std::vector<Entry> entries = list();
  std::size_t kept = 0;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (kept < keep_) {
      if (validated_.count(it->seq) != 0 || load_or_quarantine(*it, load)) {
        ++kept;
      }
      continue;
    }
    try {
      io::vfs_or_real(vfs_).unlink(it->path);
      validated_.erase(it->seq);
    } catch (const io::PowerLoss&) {
      throw;
    } catch (const io::IoError&) {
      // Best-effort GC: an undeletable stale file is not an error.
    }
  }
}

namespace {

/// read_snapshot, then `validate`; the parsed snapshot goes to `out`.
RecoveryDirectory::Load snapshot_loader(
    const SnapshotDirectory::Validator& validate,
    EngineSnapshot* out = nullptr) {
  return [&validate, out](io::Vfs& vfs, const std::string& path) {
    EngineSnapshot snap = read_snapshot(path, &vfs);
    if (validate != nullptr) {
      if (const char* reason = validate(snap)) {
        throw SnapshotMismatch(reason);
      }
    }
    if (out != nullptr) {
      *out = std::move(snap);
    }
  };
}

}  // namespace

SnapshotDirectory::SnapshotDirectory(std::string dir,
                                     const std::string& basename,
                                     io::Vfs* vfs, std::size_t keep)
    : dir_(std::move(dir), basename + ".", kSnapshotSuffix, vfs, keep) {}

std::vector<SnapshotDirectory::Entry> SnapshotDirectory::list() const {
  std::vector<Entry> entries;
  for (RecoveryDirectory::Entry& e : dir_.list()) {
    entries.push_back(Entry{e.seq, std::move(e.path)});
  }
  return entries;
}

std::optional<SnapshotDirectory::Loaded> SnapshotDirectory::newest_valid(
    const Validator& validate, std::uint64_t at_most) {
  EngineSnapshot snap;
  auto found = dir_.newest_valid(snapshot_loader(validate, &snap), at_most);
  if (!found.has_value()) {
    return std::nullopt;
  }
  return Loaded{{found->seq, std::move(found->path)}, std::move(snap)};
}

void SnapshotDirectory::publish(const EngineSnapshot& snap,
                                const Validator& validate) {
  dir_.publish(
      snap.meta.superstep,
      [&snap](io::Vfs& vfs, const std::string& path) {
        write_snapshot(path, snap, &vfs);
      },
      snapshot_loader(validate));
}

void SnapshotDirectory::prune(const Validator& validate) {
  dir_.retain(snapshot_loader(validate));
}

}  // namespace ipregel::ft
