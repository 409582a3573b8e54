#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ft/recovery_dir.hpp"
#include "shard/options.hpp"

namespace ipregel::io {
class Vfs;
}  // namespace ipregel::io

namespace ipregel::shard {

/// The durable run manifest — what makes the coordinator a recoverable
/// failure domain. Every barrier commit publishes (via io::AtomicFile on
/// the io::Vfs seam, CRC-sealed with the shared ft binary framing) the
/// coordinator's entire decision state: run identity, the fencing epoch,
/// the committed barrier frontier, the cumulative outcome counters, every
/// shard's incarnation generation, and a window of committed barrier
/// releases for idempotent replay. A takeover incarnation reads the
/// newest valid manifest and continues the run exactly where the dead
/// coordinator durably left it; everything the dead coordinator did
/// AFTER its last publish is, by the write-ahead ordering (manifest
/// before proceeds), work the workers will simply re-request.
///
/// Files are `manifest.<seq>.ipman` with a commit sequence monotone
/// across incarnations, so "newest" is a numeric name comparison and a
/// torn publish can never shadow the previous good manifest (AtomicFile
/// only renames after a successful fsync; a power cut mid-publish leaves
/// a .tmp the directory walk ignores).

/// One committed barrier release retained for replay: enough to re-send
/// the identical kProceed to a worker that re-asks a barrier the run has
/// already decided.
struct ManifestRelease {
  std::uint64_t superstep = 0;
  /// CtrlMsg::Command the release carried (continue / halt).
  std::uint64_t command = 0;
  /// The globally folded aggregate payload of that superstep.
  std::vector<std::uint8_t> aggregate;
};

/// The coordinator's durable state, one barrier commit's worth.
struct RunManifest {
  // --- run identity (must match across incarnations) ---------------------
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t options_digest = 0;
  std::uint64_t num_shards = 0;
  std::uint8_t partition = 0;
  std::uint8_t transport = 0;

  // --- fencing + ordering ------------------------------------------------
  /// Fencing epoch of the committing coordinator incarnation (1 = the
  /// first). A takeover claims max-seen + 1 and publishes the claim
  /// before acting; workers reject any older epoch.
  std::uint64_t epoch = 0;
  /// Monotone publish counter across incarnations; also the filename.
  std::uint64_t commit_seq = 0;

  // --- progress ------------------------------------------------------------
  /// The next barrier to collect (all below it are committed).
  std::uint64_t barrier_superstep = 0;
  /// The run has released its halt barrier; only values collection and
  /// worker teardown remain.
  bool halting = false;
  /// Cumulative outcome counters over the committed releases.
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_executed = 0;
  bool reached_cap = false;

  // --- control-plane stats carried across incarnations ---------------------
  std::uint64_t respawns = 0;
  std::uint64_t snapshot_recoveries = 0;
  std::uint64_t heartbeat_kills = 0;
  std::uint64_t coordinator_takeovers = 0;
  std::uint64_t adopted_workers = 0;
  double recovery_seconds = 0.0;
  double coordinator_recovery_seconds = 0.0;

  // --- per-shard incarnation generations -----------------------------------
  std::vector<std::uint64_t> generations;

  // --- committed release window, ascending by superstep --------------------
  std::vector<ManifestRelease> history;
};

/// Digest of the ShardOptions fields that must be identical for a
/// takeover to legally continue a run (shard topology, transport,
/// checkpoint cadence, replay-window math). A mismatch means the run
/// directory is being reused by a differently-configured job.
[[nodiscard]] std::uint64_t options_digest(const ShardOptions& options);

/// Serialises `m` into `path` via AtomicFile on `vfs` — durable once this
/// returns. Throws io::IoError (PowerLoss included) on failure.
void write_manifest(io::Vfs& vfs, const std::string& path,
                    const RunManifest& m);

/// Parses and fully validates one manifest file. Throws ft::FormatError
/// on any structural/CRC violation, io::IoError on I/O failure.
[[nodiscard]] RunManifest read_manifest(io::Vfs& vfs,
                                        const std::string& path);

/// The run manifests' recovery directory ("manifest.<commit_seq>.ipman"
/// files). Its walk takes read_manifest as the load callable:
/// `dir.load_newest(read_manifest)` is the newest valid manifest.
[[nodiscard]] ft::RecoveryDirectory manifest_directory(
    std::string dir, io::Vfs* vfs = nullptr, std::size_t keep = 4);

/// Atomically publishes `m` under its commit sequence, then applies
/// retention. Throws io::IoError (PowerLoss included).
void publish_manifest(ft::RecoveryDirectory& dir, const RunManifest& m);

}  // namespace ipregel::shard
