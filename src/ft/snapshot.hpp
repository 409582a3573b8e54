#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/checkpoint.hpp"

namespace ipregel::io {
class Vfs;
}  // namespace ipregel::io

namespace ipregel::ft {

/// Current snapshot format version. Bump on any layout change; readers
/// reject files whose version they do not understand instead of
/// misinterpreting them.
///
/// History:
///   v1 — initial layout.
///   v2 — metadata gained `program_fingerprint` (snapshot/program identity
///        binding). v1 files are still readable; their fingerprint decodes
///        as 0, which engines treat as "unknown — skip the identity check".
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// Oldest format version readers still accept.
inline constexpr std::uint32_t kSnapshotMinFormatVersion = 1;

/// Snapshot file magic ("IPSNAPv1" as little-endian bytes).
inline constexpr std::uint64_t kSnapshotMagic = 0x31764150414E5350ULL;

/// Filename suffix of finished snapshots.
inline constexpr const char* kSnapshotSuffix = ".ipsnap";

/// A snapshot that structurally parsed but cannot be used for the
/// requested resume: wrong graph (fingerprint), wrong engine shape
/// (combiner family, bypass, value/message sizes), or a mode the program
/// cannot recover from.
class SnapshotMismatch : public std::runtime_error {
 public:
  explicit SnapshotMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

/// Everything needed to decide whether a snapshot fits an engine, written
/// as the file's first section.
struct SnapshotMeta {
  std::uint32_t format_version = kSnapshotFormatVersion;
  CheckpointMode mode = CheckpointMode::kHeavyweight;
  /// static_cast of the engine's CombinerKind (core interprets it; the ft
  /// layer only stores it).
  std::uint8_t combiner = 0;
  bool selection_bypass = false;
  bool has_aggregator = false;
  /// The superstep the resumed run executes first (state is captured at
  /// the barrier *after* superstep-1 completed).
  std::uint64_t superstep = 0;
  std::uint64_t num_slots = 0;
  std::uint64_t first_slot = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// ft::graph_fingerprint of the graph the run was bound to. A snapshot
  /// restored onto a different graph is garbage; this is checked before
  /// any byte of state is applied.
  std::uint64_t graph_fingerprint = 0;
  /// core program_fingerprint<P>() of the application the run executed
  /// (name + value/message layout). Never 0 when written by a v2+ engine;
  /// 0 means "written before the field existed" and disables the check.
  /// Restoring a PageRank snapshot into an SSSP engine must fail with a
  /// typed mismatch, not silently reinterpret bytes.
  std::uint64_t program_fingerprint = 0;
  std::uint32_t value_size = 0;
  std::uint32_t message_size = 0;
  std::uint32_t aggregate_size = 0;
};

/// Engine state captured at a superstep barrier, as raw bytes — the
/// in-memory staging form of a snapshot. The engine fills/consumes it
/// (it knows the types); this layer persists it.
struct EngineSnapshot {
  SnapshotMeta meta;
  std::vector<std::uint8_t> values;       ///< num_slots * value_size
  std::vector<std::uint8_t> halted;       ///< num_slots
  std::vector<std::uint8_t> inbox;        ///< HW: num_slots * message_size
  std::vector<std::uint8_t> inbox_flags;  ///< HW: num_slots
  std::vector<std::uint64_t> frontier;    ///< HW + bypass: next work list
  std::vector<std::uint8_t> aggregate;    ///< HW + aggregator: folded value

  /// Staging-buffer footprint (what the MemoryTracker accounts while the
  /// snapshot is alive).
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return values.size() + halted.size() + inbox.size() +
           inbox_flags.size() + frontier.size() * sizeof(std::uint64_t) +
           aggregate.size();
  }
};

/// Writes `snap` to `path` crash-consistently through `vfs` (nullptr =
/// the real filesystem): the bytes go to "<path>.tmp", are flushed and
/// fsync'd, the file is renamed into place, and the parent directory is
/// fsync'd — so a power loss at ANY point leaves either the previous good
/// snapshot or the new one under `path`, never a torn file. Throws
/// io::IoError on I/O failure.
void write_snapshot(const std::string& path, const EngineSnapshot& snap,
                    io::Vfs* vfs = nullptr);

/// Reads and fully validates a snapshot (magic, format version, per-
/// section CRC, internal size consistency). Throws FormatError on
/// structural damage and io::IoError when the damage is really an I/O
/// failure — never returns partially-loaded state.
[[nodiscard]] EngineSnapshot read_snapshot(const std::string& path,
                                           io::Vfs* vfs = nullptr);

/// "<dir>/<basename>.<superstep><kSnapshotSuffix>".
[[nodiscard]] std::string snapshot_path(const std::string& dir,
                                        const std::string& basename,
                                        std::uint64_t superstep);

}  // namespace ipregel::ft
