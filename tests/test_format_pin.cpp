// On-disk format pins. A fixed run manifest and a fixed engine snapshot
// are written through the production writers, and the CRC-32 of each
// file's bytes is compared against a constant recorded when the layouts
// were last changed on purpose. Refactors of the writers, the framing or
// the recovery directory must leave both constants alone; a deliberate
// layout change bumps the format version AND re-records the constant.
//
// The capture pins go one layer further in: each runs a fixed program on
// a fixed small graph and pins the snapshot file an engine itself
// captured (heavyweight Engine, lightweight Engine, ShardEngine slice), so
// a change to how the engines fill in snapshot metadata or payloads shows
// up here even when the writer is untouched.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "ft/binary_format.hpp"
#include "ft/fingerprint.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "graph/generators.hpp"
#include "io/vfs.hpp"
#include "shard/manifest.hpp"
#include "shard/partition.hpp"
#include "shard/shard_engine.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

constexpr std::uint32_t kManifestFileCrc = 0x5FA2E19Fu;
constexpr std::uint32_t kSnapshotFileCrc = 0x5751CB03u;
constexpr std::uint32_t kHeavyCaptureCrc = 0x8F0006C7u;
constexpr std::uint32_t kLightCaptureCrc = 0x8C66EF4Bu;
constexpr std::uint32_t kShardCaptureCrc = 0xD48B8C3Du;

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

/// Runs `Engine<Program, K, B>` single-threaded with a kEveryK(2)
/// checkpoint policy in `mode` and returns the path of the newest
/// snapshot the engine published.
template <typename Program, CombinerKind K, bool B>
std::string engine_capture(const TempDir& dir, const graph::CsrGraph& g,
                           ft::CheckpointMode mode) {
  EngineOptions options;
  options.threads = 1;
  options.fixed_direction = true;
  options.max_supersteps = 3;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.mode = mode;
  options.checkpoint.every = 2;
  options.checkpoint.keep = 1;
  options.checkpoint.directory = dir.file("snaps");
  std::filesystem::create_directories(options.checkpoint.directory);
  Engine<Program, K, B> engine(g, Program{}, options);
  (void)engine.run();
  const auto found = ft::SnapshotDirectory(dir.file("snaps")).newest_valid();
  EXPECT_TRUE(found.has_value());
  return found.has_value() ? found->path : std::string{};
}

TEST(FormatPin, HeavyweightEngineCaptureIsUnchanged) {
  const auto g =
      testing::make_graph(graph::grid_2d(5, 4, graph::GridOptions{}));
  TempDir dir;
  const std::string path =
      engine_capture<apps::Sssp, CombinerKind::kSpinlockPush, true>(
          dir, g, ft::CheckpointMode::kHeavyweight);
  EXPECT_EQ(std::filesystem::file_size(path), 440u);
  EXPECT_EQ(file_crc(path), kHeavyCaptureCrc);
}

TEST(FormatPin, LightweightEngineCaptureIsUnchanged) {
  const auto g =
      testing::make_graph(graph::grid_2d(5, 4, graph::GridOptions{}));
  TempDir dir;
  const std::string path =
      engine_capture<apps::Hashmin, CombinerKind::kPull, false>(
          dir, g, ft::CheckpointMode::kLightweight);
  EXPECT_EQ(std::filesystem::file_size(path), 252u);
  EXPECT_EQ(file_crc(path), kLightCaptureCrc);
}

TEST(FormatPin, ShardSliceCaptureIsUnchanged) {
  const auto g =
      testing::make_graph(graph::grid_2d(5, 4, graph::GridOptions{}));
  const shard::ShardPartition part(g, 2);
  std::vector<shard::ShardEngine<apps::Sssp>> engines;
  engines.reserve(2);
  for (std::size_t s = 0; s < 2; ++s) {
    engines.emplace_back(g, apps::Sssp{}, part, s);
    engines.back().initialize();
  }
  // Three supersteps of the synchronous exchange, then shard 1's slice.
  for (std::uint64_t step = 0; step < 3; ++step) {
    for (auto& e : engines) {
      (void)e.compute_superstep(step, [](std::uint64_t) {});
    }
    std::vector<std::vector<std::vector<std::uint8_t>>> frames(2);
    for (std::size_t src = 0; src < 2; ++src) {
      for (std::size_t dst = 0; dst < 2; ++dst) {
        frames[src].push_back(engines[src].take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < 2; ++dst) {
      for (std::size_t src = 0; src < 2; ++src) {
        engines[dst].apply_frame(frames[src][dst], /*into_current=*/false);
      }
    }
    for (auto& e : engines) {
      e.advance();
    }
  }
  const auto snap = engines[1].capture(
      ft::CheckpointMode::kHeavyweight, 3, ft::graph_fingerprint(g),
      shard::shard_fingerprint(program_fingerprint<apps::Sssp>(), 2, 1));
  TempDir dir;
  const std::string path = dir.file("snapshot.3.ipsnap");
  ft::write_snapshot(path, snap);
  EXPECT_EQ(std::filesystem::file_size(path), 284u);
  EXPECT_EQ(file_crc(path), kShardCaptureCrc);
}

}  // namespace
}  // namespace ipregel
