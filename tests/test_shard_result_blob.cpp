// The coordinator's result-pipe blob: how a coordinator incarnation hands
// its final outcome (and values) to the resilient supervisor. Round trips
// of an ok and an error outcome, and the rejection contract: any damaged
// blob — truncated at any length, one flipped byte anywhere, a bogus
// section length — parses as "coordinator crashed" (false), never as a
// crash of the supervisor or an allocation blow-up.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "shard/resilient.hpp"

namespace ipregel::shard {
namespace {

std::vector<std::uint8_t> encode(const ShardOutcome& out,
                                 const std::vector<std::uint8_t>& values) {
  const std::string blob = detail::encode_result_blob(out, values);
  return {blob.begin(), blob.end()};
}

ShardOutcome ok_outcome() {
  ShardOutcome out;
  out.result.supersteps = 17;
  out.result.seconds = 0.123456789;
  out.result.total_messages = 987654321;
  out.result.total_executed_vertices = 4242;
  out.result.reached_superstep_cap = true;
  out.shard.respawns = 3;
  out.shard.snapshot_recoveries = 2;
  out.shard.heartbeat_kills = 1;
  out.shard.recovery_seconds = 1.0 / 3.0;
  out.shard.coordinator_takeovers = 4;
  out.shard.adopted_workers = 5;
  out.shard.coordinator_recovery_seconds = -0.0625;
  out.shard.coordinator_fenced = 6;
  return out;
}

ShardOutcome error_outcome() {
  ShardOutcome out = ok_outcome();
  out.error.emplace(RunErrorKind::kShardFailure, 11, 2, 77,
                    "worker 1 lost its snapshot directory");
  return out;
}

void expect_same_stats(const ShardOutcome& got, const ShardOutcome& want) {
  EXPECT_EQ(got.result.supersteps, want.result.supersteps);
  EXPECT_EQ(got.result.seconds, want.result.seconds);
  EXPECT_EQ(got.result.total_messages, want.result.total_messages);
  EXPECT_EQ(got.result.total_executed_vertices,
            want.result.total_executed_vertices);
  EXPECT_EQ(got.result.reached_superstep_cap,
            want.result.reached_superstep_cap);
  EXPECT_EQ(got.shard.respawns, want.shard.respawns);
  EXPECT_EQ(got.shard.snapshot_recoveries, want.shard.snapshot_recoveries);
  EXPECT_EQ(got.shard.heartbeat_kills, want.shard.heartbeat_kills);
  EXPECT_EQ(got.shard.recovery_seconds, want.shard.recovery_seconds);
  EXPECT_EQ(got.shard.coordinator_takeovers,
            want.shard.coordinator_takeovers);
  EXPECT_EQ(got.shard.adopted_workers, want.shard.adopted_workers);
  EXPECT_EQ(got.shard.coordinator_recovery_seconds,
            want.shard.coordinator_recovery_seconds);
  EXPECT_EQ(got.shard.coordinator_fenced, want.shard.coordinator_fenced);
}

TEST(ResultBlob, RoundTripsAnOkOutcomeWithValues) {
  const ShardOutcome sent = ok_outcome();
  std::vector<std::uint8_t> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  ShardOutcome got;
  std::vector<std::uint8_t> got_values;
  ASSERT_TRUE(
      detail::read_result_blob(encode(sent, values), &got, &got_values));
  EXPECT_TRUE(got.ok());
  expect_same_stats(got, sent);
  EXPECT_EQ(got_values, values);
}

TEST(ResultBlob, RoundTripsAnErrorOutcomeWithItsDetail) {
  const ShardOutcome sent = error_outcome();
  ShardOutcome got;
  std::vector<std::uint8_t> got_values{1, 2, 3};
  ASSERT_TRUE(detail::read_result_blob(encode(sent, {}), &got, &got_values));
  ASSERT_TRUE(got.error.has_value());
  EXPECT_EQ(got.error->kind(), RunErrorKind::kShardFailure);
  EXPECT_EQ(got.error->superstep(), 11u);
  EXPECT_EQ(got.error->thread(), 2u);
  EXPECT_EQ(got.error->vertex(), 77u);
  EXPECT_NE(std::string(got.error->what())
                .find("worker 1 lost its snapshot directory"),
            std::string::npos);
  // The raw detail crosses the pipe, so the rebuilt error reads exactly
  // like the one sent, not prefixed a second time.
  EXPECT_STREQ(got.error->what(), sent.error->what());
  expect_same_stats(got, sent);
  EXPECT_TRUE(got_values.empty());
}

TEST(ResultBlob, RejectsEveryTruncation) {
  const std::vector<std::uint8_t> clean =
      encode(error_outcome(), std::vector<std::uint8_t>(40, 0xAB));
  for (std::size_t len = 0; len < clean.size(); ++len) {
    const std::vector<std::uint8_t> cut(clean.begin(),
                                        clean.begin() + static_cast<long>(len));
    ShardOutcome got;
    std::vector<std::uint8_t> values;
    EXPECT_FALSE(detail::read_result_blob(cut, &got, &values))
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(ResultBlob, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> blob = encode(ok_outcome(), {1, 2, 3, 4});
  blob.push_back(0);
  ShardOutcome got;
  std::vector<std::uint8_t> values;
  EXPECT_FALSE(detail::read_result_blob(blob, &got, &values));
}

TEST(ResultBlob, RejectsAFlippedByteAnywhere) {
  const std::vector<std::uint8_t> clean =
      encode(error_outcome(), std::vector<std::uint8_t>(40, 0xAB));
  for (std::size_t at = 0; at < clean.size(); ++at) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[at] ^= 0x10;
    ShardOutcome got;
    std::vector<std::uint8_t> values;
    EXPECT_FALSE(detail::read_result_blob(bytes, &got, &values))
        << "flip at byte " << at << " accepted";
  }
}

TEST(ResultBlob, RejectsABogusSectionLength) {
  // Header 16 bytes, then the fields section's tag (4) and u64 length
  // (20..27). Claim an absurd length in every byte of it.
  const std::vector<std::uint8_t> clean = encode(ok_outcome(), {9, 9});
  for (std::size_t at = 20; at < 28; ++at) {
    std::vector<std::uint8_t> bytes = clean;
    bytes[at] = 0xFF;
    ShardOutcome got;
    std::vector<std::uint8_t> values;
    EXPECT_FALSE(detail::read_result_blob(bytes, &got, &values))
        << "length byte " << at;
  }
}

}  // namespace
}  // namespace ipregel::shard
