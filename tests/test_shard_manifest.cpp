// The durable run manifest: round-trip fidelity, identity digests,
// newest-valid fallback with quarantine, bounded retention, the walk's
// handling of a dead disk and a corrupt length field, and — the
// property coordinator takeover stands on — a power cut at EVERY mutating
// syscall of a publish leaves the directory either at the old manifest or
// at the new one, never at garbage and never empty.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/fault_wrap_vfs.hpp"
#include "io/faulty_vfs.hpp"
#include "io/vfs.hpp"
#include "shard/manifest.hpp"

namespace ipregel::shard {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& suffix) {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ipregel_") + info->test_suite_name() + "_" +
             info->name() + "_" + suffix);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

[[nodiscard]] RunManifest sample_manifest(std::uint64_t commit_seq) {
  RunManifest m;
  m.graph_fingerprint = 0xFEEDFACE12345678ULL;
  m.options_digest = 0xD16E57;
  m.num_shards = 3;
  m.partition = 1;
  m.transport = 0;
  m.epoch = 2;
  m.commit_seq = commit_seq;
  m.barrier_superstep = 7;
  m.halting = false;
  m.supersteps = 7;
  m.total_messages = 4242;
  m.total_executed = 999;
  m.reached_cap = false;
  m.respawns = 1;
  m.snapshot_recoveries = 1;
  m.heartbeat_kills = 2;
  m.coordinator_takeovers = 1;
  m.adopted_workers = 3;
  m.recovery_seconds = 0.125;
  m.coordinator_recovery_seconds = 0.5;
  m.generations = {0, 2, 1};
  for (std::uint64_t s = 3; s < 7; ++s) {
    ManifestRelease rel;
    rel.superstep = s;
    rel.command = s == 6 ? 1 : 0;
    rel.aggregate = {static_cast<std::uint8_t>(s), 0x42};
    m.history.push_back(rel);
  }
  return m;
}

TEST(ShardManifest, RoundTripsEveryField) {
  TempDir dir("rt");
  io::Vfs& vfs = io::vfs_or_real(nullptr);
  const RunManifest m = sample_manifest(5);
  const std::string path = dir.str() + "/manifest.000000000005.ipman";
  write_manifest(vfs, path, m);
  const RunManifest r = read_manifest(vfs, path);

  EXPECT_EQ(r.graph_fingerprint, m.graph_fingerprint);
  EXPECT_EQ(r.options_digest, m.options_digest);
  EXPECT_EQ(r.num_shards, m.num_shards);
  EXPECT_EQ(r.partition, m.partition);
  EXPECT_EQ(r.transport, m.transport);
  EXPECT_EQ(r.epoch, m.epoch);
  EXPECT_EQ(r.commit_seq, m.commit_seq);
  EXPECT_EQ(r.barrier_superstep, m.barrier_superstep);
  EXPECT_EQ(r.halting, m.halting);
  EXPECT_EQ(r.supersteps, m.supersteps);
  EXPECT_EQ(r.total_messages, m.total_messages);
  EXPECT_EQ(r.total_executed, m.total_executed);
  EXPECT_EQ(r.reached_cap, m.reached_cap);
  EXPECT_EQ(r.respawns, m.respawns);
  EXPECT_EQ(r.snapshot_recoveries, m.snapshot_recoveries);
  EXPECT_EQ(r.heartbeat_kills, m.heartbeat_kills);
  EXPECT_EQ(r.coordinator_takeovers, m.coordinator_takeovers);
  EXPECT_EQ(r.adopted_workers, m.adopted_workers);
  EXPECT_DOUBLE_EQ(r.recovery_seconds, m.recovery_seconds);
  EXPECT_DOUBLE_EQ(r.coordinator_recovery_seconds,
                   m.coordinator_recovery_seconds);
  EXPECT_EQ(r.generations, m.generations);
  ASSERT_EQ(r.history.size(), m.history.size());
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    EXPECT_EQ(r.history[i].superstep, m.history[i].superstep);
    EXPECT_EQ(r.history[i].command, m.history[i].command);
    EXPECT_EQ(r.history[i].aggregate, m.history[i].aggregate);
  }
}

TEST(ShardManifest, OptionsDigestSeparatesIncompatibleRuns) {
  ShardOptions a;
  ShardOptions b = a;
  EXPECT_EQ(options_digest(a), options_digest(b));
  // Every identity-bearing knob must move the digest: a takeover with a
  // different topology/cadence must be refused, not half-adopted.
  b.num_shards = a.num_shards + 1;
  EXPECT_NE(options_digest(a), options_digest(b));
  b = a;
  b.transport = TransportKind::kTcp;
  EXPECT_NE(options_digest(a), options_digest(b));
  b = a;
  b.checkpoint.mode = ft::CheckpointMode::kLightweight;
  EXPECT_NE(options_digest(a), options_digest(b));
  b = a;
  b.checkpoint.every = a.checkpoint.every + 1;
  EXPECT_NE(options_digest(a), options_digest(b));
  b = a;
  b.retain_supersteps = a.retain_supersteps + 1;
  EXPECT_NE(options_digest(a), options_digest(b));
  b = a;
  b.max_supersteps = a.max_supersteps + 1;
  EXPECT_NE(options_digest(a), options_digest(b));
}

TEST(ShardManifest, NewestValidQuarantinesCorruptAndFallsBack) {
  TempDir dir("fb");
  ft::RecoveryDirectory mdir = manifest_directory(dir.str());
  publish_manifest(mdir, sample_manifest(1));
  publish_manifest(mdir, sample_manifest(2));

  // Corrupt the newest in place: flip a byte in the middle.
  const std::string newest = mdir.path_for(2);
  {
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    f.put('\xEE');
  }

  ft::RecoveryDirectory fresh = manifest_directory(dir.str());
  const auto got = fresh.load_newest(read_manifest);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->commit_seq, 1u);
  EXPECT_EQ(fresh.quarantined(), 1u);
  EXPECT_TRUE(std::filesystem::exists(newest + ".quarantined"));
  EXPECT_FALSE(std::filesystem::exists(newest));
}

TEST(ShardManifest, EmptyAndForeignFilesYieldNothing) {
  TempDir dir("empty");
  ft::RecoveryDirectory mdir = manifest_directory(dir.str());
  EXPECT_FALSE(mdir.load_newest(read_manifest).has_value());
  // Foreign names and tmp leftovers are ignored by the walk.
  std::ofstream(dir.str() + "/values.bin") << "x";
  std::ofstream(dir.str() + "/manifest.000000000009.ipman.tmp") << "y";
  EXPECT_FALSE(mdir.load_newest(read_manifest).has_value());
  // A missing directory is "no manifests", not an error.
  ft::RecoveryDirectory gone = manifest_directory(dir.str() + "/nope");
  EXPECT_FALSE(gone.load_newest(read_manifest).has_value());
}

TEST(ShardManifest, RetentionPrunesOldestButKeepsTheWindow) {
  TempDir dir("keep");
  ft::RecoveryDirectory mdir = manifest_directory(dir.str(), nullptr,
                                                  /*keep=*/3);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    RunManifest m = sample_manifest(seq);
    m.barrier_superstep = seq;
    publish_manifest(mdir, m);
  }
  const auto entries = mdir.list();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.front().seq, 4u);
  EXPECT_EQ(entries.back().seq, 6u);
  const auto got = mdir.load_newest(read_manifest);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->barrier_superstep, 6u);
}

TEST(ShardManifest, PowerCutAtEverySyscallOfAPublishIsAtomic) {
  // The write-ahead property, mechanically: cut the power at mutating
  // syscall 0, 1, 2, ... of publishing manifest 2 over a durable
  // manifest 1. After every cut, a fresh directory walk must recover
  // EITHER manifest 2 (the publish completed) or manifest 1 (it did
  // not) — never nothing, never a half-written hybrid.
  io::Vfs& real = io::vfs_or_real(nullptr);
  for (std::uint64_t at = 0;; ++at) {
    TempDir dir("cut" + std::to_string(at));
    {
      ft::RecoveryDirectory setup = manifest_directory(dir.str());
      publish_manifest(setup, sample_manifest(1));
    }
    io::WriteCutVfs cut(real, at, "manifest.");
    ft::RecoveryDirectory cutting = manifest_directory(dir.str(), &cut);
    bool lost_power = false;
    try {
      publish_manifest(cutting, sample_manifest(2));
    } catch (const io::PowerLoss&) {
      lost_power = true;
    }
    ft::RecoveryDirectory after = manifest_directory(dir.str());
    const auto got = after.load_newest(read_manifest);
    ASSERT_TRUE(got.has_value()) << "cut at op " << at;
    EXPECT_TRUE(got->commit_seq == 1 || got->commit_seq == 2)
        << "cut at op " << at;
    if (got->commit_seq == 2) {
      EXPECT_EQ(got->barrier_superstep, 7u) << "cut at op " << at;
    }
    if (!lost_power) {
      // The cut point lies beyond the publish's syscall count: the sweep
      // is complete.
      EXPECT_EQ(got->commit_seq, 2u);
      break;
    }
  }
}

// --- walk regressions --------------------------------------------------------

TEST(ShardManifest, WalkPropagatesPowerLossInsteadOfReportingNoManifest) {
  // A dead disk is not an empty directory: a takeover that read "no
  // manifest" here would boot a fresh run over a live one.
  io::FaultyVfs vfs;
  vfs.mkdir("/run");
  ft::RecoveryDirectory mdir = manifest_directory("/run", &vfs);
  publish_manifest(mdir, sample_manifest(1));
  vfs.set_plan({io::FaultyVfs::FaultKind::kPowerCut, 1});
  EXPECT_THROW(vfs.mkdir("/trip"), io::PowerLoss);
  ASSERT_TRUE(vfs.power_is_cut());
  EXPECT_THROW((void)mdir.load_newest(read_manifest), io::PowerLoss);
}

TEST(ShardManifest, CorruptSectionLengthIsQuarantinedNotThrown) {
  TempDir dir("len");
  ft::RecoveryDirectory mdir = manifest_directory(dir.str());
  publish_manifest(mdir, sample_manifest(1));
  publish_manifest(mdir, sample_manifest(2));
  // Set the high byte of the first section's u64 length (header 16 bytes,
  // tag 4, length at 20..27): the file now claims a ~2^63-byte section.
  const std::string newest = mdir.path_for(2);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(27);
    f.put('\x80');
  }
  ft::RecoveryDirectory fresh = manifest_directory(dir.str());
  const auto got = fresh.load_newest(read_manifest);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->commit_seq, 1u);
  EXPECT_EQ(fresh.quarantined(), 1u);
  EXPECT_TRUE(std::filesystem::exists(newest + ".quarantined"));
}

}  // namespace
}  // namespace ipregel::shard
