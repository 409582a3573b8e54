#include "ft/snapshot.hpp"

#include <algorithm>

#include "ft/binary_format.hpp"
#include "io/stream.hpp"
#include "io/vfs.hpp"

namespace ipregel::ft {
namespace {

// Section tags, in file order.
constexpr std::uint32_t kMetaTag = 1;
constexpr std::uint32_t kValuesTag = 2;
constexpr std::uint32_t kHaltedTag = 3;
constexpr std::uint32_t kInboxTag = 4;
constexpr std::uint32_t kInboxFlagsTag = 5;
constexpr std::uint32_t kFrontierTag = 6;
constexpr std::uint32_t kAggregateTag = 7;

std::vector<std::uint8_t> encode_meta(const SnapshotMeta& m) {
  FieldWriter w;
  w.u8(static_cast<std::uint8_t>(m.mode));
  w.u8(m.combiner);
  w.u8(m.selection_bypass ? 1 : 0);
  w.u8(m.has_aggregator ? 1 : 0);
  w.u64(m.superstep);
  w.u64(m.num_slots);
  w.u64(m.first_slot);
  w.u64(m.num_vertices);
  w.u64(m.num_edges);
  w.u64(m.graph_fingerprint);
  w.u32(m.value_size);
  w.u32(m.message_size);
  w.u32(m.aggregate_size);
  w.u64(m.program_fingerprint);  // v2: appended so v1 layouts are a prefix
  return w.bytes();
}

SnapshotMeta decode_meta(const std::vector<std::uint8_t>& bytes,
                         const std::string& path, std::uint32_t version) {
  FieldReader r(bytes, path + " (snapshot metadata)");
  SnapshotMeta m;
  m.format_version = version;
  m.mode = static_cast<CheckpointMode>(r.u8());
  m.combiner = r.u8();
  m.selection_bypass = r.u8() != 0;
  m.has_aggregator = r.u8() != 0;
  m.superstep = r.u64();
  m.num_slots = r.u64();
  m.first_slot = r.u64();
  m.num_vertices = r.u64();
  m.num_edges = r.u64();
  m.graph_fingerprint = r.u64();
  m.value_size = r.u32();
  m.message_size = r.u32();
  m.aggregate_size = r.u32();
  if (version >= 2) {
    m.program_fingerprint = r.u64();
  }
  r.done();
  if (m.mode != CheckpointMode::kHeavyweight &&
      m.mode != CheckpointMode::kLightweight) {
    throw FormatError(path + ": unknown checkpoint mode in metadata");
  }
  return m;
}

void check_sizes(const EngineSnapshot& s, const std::string& path) {
  const auto& m = s.meta;
  const auto expect = [&path](const char* what, std::size_t got,
                              std::size_t want) {
    if (got != want) {
      throw FormatError(path + ": " + what + " section holds " +
                        std::to_string(got) + " bytes, metadata implies " +
                        std::to_string(want));
    }
  };
  expect("values", s.values.size(), m.num_slots * m.value_size);
  expect("halted", s.halted.size(), m.num_slots);
  if (m.mode == CheckpointMode::kHeavyweight) {
    expect("inbox", s.inbox.size(), m.num_slots * m.message_size);
    expect("inbox flags", s.inbox_flags.size(), m.num_slots);
    if (m.has_aggregator) {
      expect("aggregate", s.aggregate.size(), m.aggregate_size);
    }
    for (const std::uint64_t slot : s.frontier) {
      if (slot >= m.num_slots) {
        throw FormatError(path + ": frontier entry " + std::to_string(slot) +
                          " out of range (num_slots = " +
                          std::to_string(m.num_slots) + ")");
      }
    }
  } else {
    // A lightweight snapshot must not smuggle heavyweight sections.
    expect("inbox", s.inbox.size(), 0);
    expect("inbox flags", s.inbox_flags.size(), 0);
    expect("aggregate", s.aggregate.size(), 0);
  }
}

}  // namespace

void write_snapshot(const std::string& path, const EngineSnapshot& snap,
                    io::Vfs* vfs) {
  // Crash-consistent publish: bytes to "<path>.tmp", flush + fsync(tmp),
  // rename into place, fsync the parent directory. The previous good
  // snapshot survives a power loss at any point before the rename is
  // durable; after it, the new one is.
  io::AtomicFile out(io::vfs_or_real(vfs), path);
  BinaryWriter w(out.stream(), kSnapshotMagic, kSnapshotFormatVersion);
  const std::vector<std::uint8_t> meta = encode_meta(snap.meta);
  w.section(kMetaTag, meta.data(), meta.size());
  w.section(kValuesTag, snap.values.data(), snap.values.size());
  w.section(kHaltedTag, snap.halted.data(), snap.halted.size());
  if (snap.meta.mode == CheckpointMode::kHeavyweight) {
    w.section(kInboxTag, snap.inbox.data(), snap.inbox.size());
    w.section(kInboxFlagsTag, snap.inbox_flags.data(),
              snap.inbox_flags.size());
    if (snap.meta.selection_bypass) {
      w.section(kFrontierTag, snap.frontier.data(),
                snap.frontier.size() * sizeof(std::uint64_t));
    }
    if (snap.meta.has_aggregator) {
      w.section(kAggregateTag, snap.aggregate.data(),
                snap.aggregate.size());
    }
  }
  w.finish();
  out.commit();  // throws the typed IoError for any buffered failure too
}

EngineSnapshot read_snapshot(const std::string& path, io::Vfs* vfs) {
  io::VfsIStream in(io::vfs_or_real(vfs), path);
  try {
    BinaryReader r(in.stream(), path, kSnapshotMagic, kSnapshotMinFormatVersion,
                   kSnapshotFormatVersion);
    EngineSnapshot snap;
    snap.meta =
        decode_meta(r.expect_section(kMetaTag), path, r.version());
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> payload;
    while (r.next_section(tag, payload)) {
      switch (tag) {
        case kValuesTag:
          snap.values = std::move(payload);
          break;
        case kHaltedTag:
          snap.halted = std::move(payload);
          break;
        case kInboxTag:
          snap.inbox = std::move(payload);
          break;
        case kInboxFlagsTag:
          snap.inbox_flags = std::move(payload);
          break;
        case kFrontierTag: {
          if (payload.size() % sizeof(std::uint64_t) != 0) {
            throw FormatError(path + ": frontier section size is not a "
                                     "multiple of 8");
          }
          snap.frontier.resize(payload.size() / sizeof(std::uint64_t));
          std::copy_n(payload.data(), payload.size(),
                      reinterpret_cast<std::uint8_t*>(snap.frontier.data()));
          break;
        }
        case kAggregateTag:
          snap.aggregate = std::move(payload);
          break;
        default:
          // Unknown section within a known format version: corruption, not
          // forward compatibility.
          throw FormatError(path + ": unknown section tag " +
                            std::to_string(tag));
      }
      payload.clear();
    }
    check_sizes(snap, path);
    return snap;
  } catch (const FormatError&) {
    // A failed read surfaces to the parser as truncation; report the real
    // I/O failure (EIO, power loss, ...) rather than "corrupt file".
    in.rethrow_io_error();
    throw;
  }
}

std::string snapshot_path(const std::string& dir, const std::string& basename,
                          std::uint64_t superstep) {
  return dir + "/" + basename + "." + std::to_string(superstep) +
         kSnapshotSuffix;
}

}  // namespace ipregel::ft
