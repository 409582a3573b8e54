// Unit tests for the single-message mailboxes (paper sections 6.1-6.3):
// push delivery under both lock flavours, pull arming on the lock-free
// store, and both directions sharing one store.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "core/mailbox.hpp"
#include "runtime/spin_lock.hpp"

namespace {

using ipregel::Mailboxes;
using ipregel::runtime::SpinLock;

void combine_min(std::uint32_t& old, const std::uint32_t& incoming) {
  old = std::min(old, incoming);
}

template <typename Lock>
class PushMailboxTest : public ::testing::Test {};

using LockTypes = ::testing::Types<std::mutex, SpinLock>;
TYPED_TEST_SUITE(PushMailboxTest, LockTypes);

TYPED_TEST(PushMailboxTest, FirstDeliveryFillsTheSlot) {
  Mailboxes<std::uint32_t, TypeParam> boxes(8);
  EXPECT_TRUE(boxes.deliver(0, 3, 42u, combine_min))
      << "first delivery reports an empty mailbox";
  EXPECT_TRUE(boxes.has_message(0, 3));
  std::uint32_t out = 0;
  ASSERT_TRUE(boxes.consume(0, 3, out));
  EXPECT_EQ(out, 42u);
}

TYPED_TEST(PushMailboxTest, SecondDeliveryCombines) {
  Mailboxes<std::uint32_t, TypeParam> boxes(8);
  EXPECT_TRUE(boxes.deliver(0, 1, 10u, combine_min));
  EXPECT_FALSE(boxes.deliver(0, 1, 5u, combine_min));
  EXPECT_FALSE(boxes.deliver(0, 1, 20u, combine_min));
  std::uint32_t out = 0;
  ASSERT_TRUE(boxes.consume(0, 1, out));
  EXPECT_EQ(out, 5u) << "min combiner keeps the smallest";
}

TYPED_TEST(PushMailboxTest, ConsumeClearsTheSlot) {
  Mailboxes<std::uint32_t, TypeParam> boxes(4);
  boxes.deliver(1, 2, 7u, combine_min);
  std::uint32_t out = 0;
  EXPECT_TRUE(boxes.consume(1, 2, out));
  EXPECT_FALSE(boxes.consume(1, 2, out)) << "a message is consumed once";
  EXPECT_FALSE(boxes.has_message(1, 2));
}

TYPED_TEST(PushMailboxTest, GenerationsAreIndependent) {
  // The BSP rule: generation g (being consumed) and generation g^1 (being
  // filled) must never alias.
  Mailboxes<std::uint32_t, TypeParam> boxes(4);
  boxes.deliver(0, 0, 1u, combine_min);
  boxes.deliver(1, 0, 2u, combine_min);
  std::uint32_t out = 0;
  ASSERT_TRUE(boxes.consume(0, 0, out));
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(boxes.consume(1, 0, out));
  EXPECT_EQ(out, 2u);
}

TYPED_TEST(PushMailboxTest, ResetEmptiesBothGenerations) {
  Mailboxes<std::uint32_t, TypeParam> boxes(4);
  boxes.deliver(0, 0, 1u, combine_min);
  boxes.deliver(1, 1, 2u, combine_min);
  boxes.reset();
  std::uint32_t out = 0;
  EXPECT_FALSE(boxes.consume(0, 0, out));
  EXPECT_FALSE(boxes.consume(1, 1, out));
}

TYPED_TEST(PushMailboxTest, ConcurrentDeliveriesCombineAll) {
  // The data race the locks exist for: hammer one mailbox from several
  // threads with a sum combiner; nothing may be lost.
  Mailboxes<std::uint32_t, TypeParam> boxes(1);
  constexpr int kThreads = 4;
  constexpr int kMessages = 25'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&boxes] {
      for (int i = 0; i < kMessages; ++i) {
        boxes.deliver(0, 0, 1u, [](std::uint32_t& old,
                                   const std::uint32_t& incoming) {
          old += incoming;
        });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::uint32_t out = 0;
  ASSERT_TRUE(boxes.consume(0, 0, out));
  EXPECT_EQ(out, static_cast<std::uint32_t>(kThreads * kMessages));
}

TYPED_TEST(PushMailboxTest, ExactlyOneFirstDeliveryUnderContention) {
  // The selection bypass hinges on deliver() reporting "was empty" exactly
  // once per generation per mailbox.
  Mailboxes<std::uint32_t, TypeParam> boxes(64);
  constexpr int kThreads = 4;
  std::vector<int> firsts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t slot = 0; slot < 64; ++slot) {
        if (boxes.deliver(0, slot, 1u, combine_min)) {
          ++firsts[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  int total_firsts = 0;
  for (const int f : firsts) {
    total_firsts += f;
  }
  EXPECT_EQ(total_firsts, 64);
}

TEST(PushMailboxSizes, LockBytesMatchThePaper) {
  EXPECT_EQ((Mailboxes<std::uint32_t, std::mutex>::lock_bytes_per_vertex()),
            40u);
  EXPECT_EQ((Mailboxes<std::uint32_t, SpinLock>::lock_bytes_per_vertex()),
            4u);
  EXPECT_EQ((Mailboxes<std::uint32_t>::lock_bytes_per_vertex()), 0u)
      << "a pull-only store allocates no lock";
}

TYPED_TEST(PushMailboxTest, OneGenerationServesBothDirections) {
  // A direction-optimising engine fills a generation by pull one superstep
  // and by push another: the same flags mean "armed outbox" or "inbox".
  Mailboxes<std::uint32_t, TypeParam> boxes(4);
  boxes.arm(1, 2, 9u);
  std::uint32_t out = 0;
  ASSERT_TRUE(boxes.fetch(1, 2, out));
  EXPECT_EQ(out, 9u);
  ASSERT_TRUE(boxes.fetch(1, 2, out)) << "fetch does not consume";
  boxes.clear_range(1, 0, 4);
  EXPECT_FALSE(boxes.has_message(1, 2));
  EXPECT_TRUE(boxes.deliver(1, 2, 5u, combine_min))
      << "a wiped pull generation is an empty inbox";
  ASSERT_TRUE(boxes.consume(1, 2, out));
  EXPECT_EQ(out, 5u);
}

TEST(PullMailboxes, BroadcastThenFetch) {
  Mailboxes<double> out(8);
  EXPECT_FALSE(out.has_message(0, 2));
  out.arm(0, 2, 1.5);
  EXPECT_TRUE(out.has_message(0, 2));
  double v = 0.0;
  ASSERT_TRUE(out.fetch(0, 2, v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  // fetch is non-destructive: every out-neighbour reads the same value.
  ASSERT_TRUE(out.fetch(0, 2, v));
}

TEST(PullMailboxes, GenerationsAreIndependent) {
  Mailboxes<double> out(4);
  out.arm(0, 1, 1.0);
  out.arm(1, 1, 2.0);
  double v = 0.0;
  ASSERT_TRUE(out.fetch(0, 1, v));
  EXPECT_DOUBLE_EQ(v, 1.0);
  ASSERT_TRUE(out.fetch(1, 1, v));
  EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(PullMailboxes, ClearRangeDisarms) {
  Mailboxes<double> out(10);
  for (std::size_t s = 0; s < 10; ++s) {
    out.arm(0, s, 1.0);
  }
  out.clear_range(0, 2, 5);
  EXPECT_TRUE(out.has_message(0, 1));
  EXPECT_FALSE(out.has_message(0, 2));
  EXPECT_FALSE(out.has_message(0, 4));
  EXPECT_TRUE(out.has_message(0, 5));
}

TEST(PullMailboxes, ResetDisarmsEverything) {
  Mailboxes<double> out(4);
  out.arm(0, 0, 1.0);
  out.arm(1, 3, 2.0);
  out.reset();
  double v = 0.0;
  EXPECT_FALSE(out.fetch(0, 0, v));
  EXPECT_FALSE(out.fetch(1, 3, v));
}

}  // namespace
