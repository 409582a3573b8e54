#include "shard/manifest.hpp"

#include <utility>

#include "ft/binary_format.hpp"
#include "io/stream.hpp"
#include "io/vfs.hpp"
#include "runtime/rng.hpp"

namespace ipregel::shard {

namespace {

constexpr std::uint64_t kManifestMagic = 0x464E414D52504900ULL;  // "IPRMANF"
constexpr std::uint32_t kManifestVersion = 1;

constexpr std::uint32_t kMetaTag = 1;
constexpr std::uint32_t kShardsTag = 2;
constexpr std::uint32_t kHistoryTag = 3;

}  // namespace

std::uint64_t options_digest(const ShardOptions& options) {
  std::uint64_t h = 0x1972'5045'4C4D'414EULL;
  const auto fold = [&h](std::uint64_t v) { h = runtime::mix64(h ^ v); };
  fold(options.num_shards);
  fold(static_cast<std::uint64_t>(options.partition));
  fold(static_cast<std::uint64_t>(options.transport));
  fold(static_cast<std::uint64_t>(options.checkpoint.mode));
  fold(options.checkpoint.every);
  fold(options.retain_supersteps);
  fold(options.max_supersteps);
  return h;
}

void write_manifest(io::Vfs& vfs, const std::string& path,
                    const RunManifest& m) {
  io::AtomicFile file(vfs, path);
  ft::BinaryWriter writer(file.stream(), kManifestMagic, kManifestVersion);

  ft::FieldWriter meta;
  meta.u64(m.graph_fingerprint);
  meta.u64(m.options_digest);
  meta.u64(m.num_shards);
  meta.u8(m.partition);
  meta.u8(m.transport);
  meta.u64(m.epoch);
  meta.u64(m.commit_seq);
  meta.u64(m.barrier_superstep);
  meta.u8(m.halting ? 1 : 0);
  meta.u64(m.supersteps);
  meta.u64(m.total_messages);
  meta.u64(m.total_executed);
  meta.u8(m.reached_cap ? 1 : 0);
  meta.u64(m.respawns);
  meta.u64(m.snapshot_recoveries);
  meta.u64(m.heartbeat_kills);
  meta.u64(m.coordinator_takeovers);
  meta.u64(m.adopted_workers);
  meta.f64(m.recovery_seconds);
  meta.f64(m.coordinator_recovery_seconds);
  writer.section(kMetaTag, meta.bytes().data(), meta.bytes().size());

  ft::FieldWriter shards;
  shards.u64(m.generations.size());
  for (const std::uint64_t g : m.generations) {
    shards.u64(g);
  }
  writer.section(kShardsTag, shards.bytes().data(), shards.bytes().size());

  ft::FieldWriter history;
  history.u64(m.history.size());
  for (const ManifestRelease& rel : m.history) {
    history.u64(rel.superstep);
    history.u64(rel.command);
    history.blob(rel.aggregate.data(), rel.aggregate.size());
  }
  writer.section(kHistoryTag, history.bytes().data(),
                 history.bytes().size());

  writer.finish();
  file.commit();
}

RunManifest read_manifest(io::Vfs& vfs, const std::string& path) {
  io::VfsIStream in(vfs, path);
  RunManifest m;
  try {
    ft::BinaryReader reader(in.stream(), path, kManifestMagic,
                            kManifestVersion, kManifestVersion);

    const std::vector<std::uint8_t> meta_bytes =
        reader.expect_section(kMetaTag);
    ft::FieldReader meta(meta_bytes, path + " meta");
    m.graph_fingerprint = meta.u64();
    m.options_digest = meta.u64();
    m.num_shards = meta.u64();
    m.partition = meta.u8();
    m.transport = meta.u8();
    m.epoch = meta.u64();
    m.commit_seq = meta.u64();
    m.barrier_superstep = meta.u64();
    m.halting = meta.u8() != 0;
    m.supersteps = meta.u64();
    m.total_messages = meta.u64();
    m.total_executed = meta.u64();
    m.reached_cap = meta.u8() != 0;
    m.respawns = meta.u64();
    m.snapshot_recoveries = meta.u64();
    m.heartbeat_kills = meta.u64();
    m.coordinator_takeovers = meta.u64();
    m.adopted_workers = meta.u64();
    m.recovery_seconds = meta.f64();
    m.coordinator_recovery_seconds = meta.f64();
    meta.done();

    const std::vector<std::uint8_t> shard_bytes =
        reader.expect_section(kShardsTag);
    ft::FieldReader shards(shard_bytes, path + " shards");
    const std::uint64_t n = shards.u64();
    if (n != m.num_shards || n > 65'536) {
      throw ft::FormatError(path + ": shard table size mismatch");
    }
    m.generations.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.generations[i] = shards.u64();
    }
    shards.done();

    const std::vector<std::uint8_t> history_bytes =
        reader.expect_section(kHistoryTag);
    ft::FieldReader history(history_bytes, path + " history");
    const std::uint64_t releases = history.u64();
    if (releases > 1'000'000) {
      throw ft::FormatError(path + ": implausible history size");
    }
    m.history.resize(releases);
    for (std::uint64_t i = 0; i < releases; ++i) {
      ManifestRelease& rel = m.history[i];
      rel.superstep = history.u64();
      rel.command = history.u64();
      rel.aggregate = history.blob();
      if (i > 0 && rel.superstep <= m.history[i - 1].superstep) {
        throw ft::FormatError(path + ": history not ascending");
      }
    }
    history.done();
  } catch (...) {
    // A parse failure may be a disguised I/O failure; surface the typed
    // IoError (PowerLoss included) when one was captured.
    in.rethrow_io_error();
    throw;
  }
  return m;
}

ft::RecoveryDirectory manifest_directory(std::string dir, io::Vfs* vfs,
                                         std::size_t keep) {
  return ft::RecoveryDirectory(std::move(dir), "manifest.", ".ipman", vfs,
                               keep);
}

void publish_manifest(ft::RecoveryDirectory& dir, const RunManifest& m) {
  dir.publish(
      m.commit_seq,
      [&m](io::Vfs& vfs, const std::string& path) {
        write_manifest(vfs, path, m);
      },
      read_manifest);
}

}  // namespace ipregel::shard
