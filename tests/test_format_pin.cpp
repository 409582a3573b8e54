// On-disk format pins. A fixed run manifest and a fixed engine snapshot
// are written through the production writers, and the CRC-32 of each
// file's bytes is compared against a constant recorded when the layouts
// were last changed on purpose. Refactors of the writers, the framing or
// the recovery directory must leave both constants alone; a deliberate
// layout change bumps the format version AND re-records the constant.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ft/binary_format.hpp"
#include "ft/snapshot.hpp"
#include "io/vfs.hpp"
#include "shard/manifest.hpp"

namespace ipregel {
namespace {

constexpr std::uint32_t kManifestFileCrc = 0x5FA2E19Fu;
constexpr std::uint32_t kSnapshotFileCrc = 0x5751CB03u;

class TempDir {
 public:
  TempDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ipregel_format_pin_") + info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return ft::crc32(bytes.data(), bytes.size());
}

TEST(FormatPin, RunManifestBytesAreUnchanged) {
  shard::RunManifest m;
  m.graph_fingerprint = 0x0123456789ABCDEFULL;
  m.options_digest = 0xFEDCBA9876543210ULL;
  m.num_shards = 3;
  m.partition = 1;
  m.transport = 1;
  m.epoch = 4;
  m.commit_seq = 17;
  m.barrier_superstep = 9;
  m.halting = true;
  m.supersteps = 9;
  m.total_messages = 123456;
  m.total_executed = 7890;
  m.reached_cap = true;
  m.respawns = 2;
  m.snapshot_recoveries = 1;
  m.heartbeat_kills = 3;
  m.coordinator_takeovers = 2;
  m.adopted_workers = 5;
  m.recovery_seconds = 0.375;
  m.coordinator_recovery_seconds = 1.0 / 3.0;
  m.generations = {1, 0, 4};
  for (std::uint64_t s = 5; s < 9; ++s) {
    shard::ManifestRelease rel;
    rel.superstep = s;
    rel.command = s == 8 ? 1 : 0;
    for (std::uint64_t b = 0; b < s % 3; ++b) {
      rel.aggregate.push_back(static_cast<std::uint8_t>(0xA0 + s + b));
    }
    m.history.push_back(rel);
  }
  TempDir dir;
  const std::string path = dir.file("manifest.17.ipman");
  shard::write_manifest(io::vfs_or_real(nullptr), path, m);
  EXPECT_EQ(std::filesystem::file_size(path), 337u);
  EXPECT_EQ(file_crc(path), kManifestFileCrc);
}

TEST(FormatPin, EngineSnapshotBytesAreUnchanged) {
  ft::EngineSnapshot snap;
  snap.meta.mode = ft::CheckpointMode::kHeavyweight;
  snap.meta.combiner = 2;
  snap.meta.selection_bypass = true;
  snap.meta.has_aggregator = true;
  snap.meta.superstep = 6;
  snap.meta.num_slots = 5;
  snap.meta.first_slot = 1;
  snap.meta.num_vertices = 4;
  snap.meta.num_edges = 7;
  snap.meta.graph_fingerprint = 0xABCDEF0123456789ULL;
  snap.meta.program_fingerprint = 0x1122334455667788ULL;
  snap.meta.value_size = 4;
  snap.meta.message_size = 2;
  snap.meta.aggregate_size = 8;
  for (std::uint8_t i = 0; i < 20; ++i) {
    snap.values.push_back(static_cast<std::uint8_t>(i * 7 + 1));
  }
  snap.halted = {0, 1, 0, 1, 1};
  for (std::uint8_t i = 0; i < 10; ++i) {
    snap.inbox.push_back(static_cast<std::uint8_t>(0xF0 - i));
  }
  snap.inbox_flags = {1, 0, 1, 0, 0};
  snap.frontier = {4, 2};
  snap.aggregate = {8, 7, 6, 5, 4, 3, 2, 1};
  TempDir dir;
  const std::string path = dir.file("snapshot.6.ipsnap");
  ft::write_snapshot(path, snap);
  EXPECT_EQ(std::filesystem::file_size(path), 280u);
  EXPECT_EQ(file_crc(path), kSnapshotFileCrc);
}

}  // namespace
}  // namespace ipregel
