// SIGCHLD-storm tests for the EINTR discipline in RealVfs, AtomicFile and
// ThreadPool. The sharded runtime (src/shard) supervises child processes,
// so SIGCHLD can land on ANY thread mid-syscall; a handler installed
// without SA_RESTART turns each delivery into an EINTR. Every blocking
// call in the I/O stack must retry (except close(), where Linux releases
// the descriptor anyway) — an unretried EINTR would surface as a spurious
// IoError in the middle of a checkpoint.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "io/stream.hpp"
#include "io/vfs.hpp"
#include "runtime/thread_pool.hpp"

namespace ipregel::io {
namespace {

// Lock-free atomics are async-signal-safe, and unlike sig_atomic_t they
// stay well-defined when the kernel delivers SIGCHLD on a DIFFERENT
// thread than the one reading the counter (the fork-storm test below).
std::atomic<int> g_signals{0};

extern "C" void count_sigchld(int) {
  g_signals.fetch_add(1, std::memory_order_relaxed);
}

/// Installs a no-SA_RESTART SIGCHLD handler and hammers the constructing
/// thread with pthread_kill(SIGCHLD) from a sibling thread until
/// destroyed. Restores the previous disposition on exit.
class SigchldStorm {
 public:
  SigchldStorm() : target_(::pthread_self()) {
    g_signals.store(0, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = count_sigchld;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately NOT SA_RESTART
    ::sigaction(SIGCHLD, &sa, &old_);
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        ::pthread_kill(target_, SIGCHLD);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  ~SigchldStorm() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    ::sigaction(SIGCHLD, &old_, nullptr);
  }
  [[nodiscard]] static int delivered() {
    return g_signals.load(std::memory_order_relaxed);
  }

 private:
  pthread_t target_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  struct sigaction old_ = {};
};

class TempDir {
 public:
  TempDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ipregel_") + info->test_suite_name() + "_" +
             info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

[[nodiscard]] std::vector<char> pattern_bytes(std::size_t n) {
  std::vector<char> buf(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  return buf;
}

TEST(IoEintr, RealVfsReadWriteFsyncSurviveTheStorm) {
  TempDir dir;
  const std::string path = dir.str() + "/payload.bin";
  const auto want = pattern_bytes(4u << 20);
  constexpr std::size_t kChunk = 64u << 10;
  SigchldStorm storm;
  {
    auto f = real_vfs().open(path, Vfs::OpenMode::kTruncate);
    for (std::size_t off = 0; off < want.size(); off += kChunk) {
      f->write(want.data() + off, kChunk);
    }
    f->fsync();
    f->close();
  }
  std::vector<char> got(want.size());
  {
    auto f = real_vfs().open(path, Vfs::OpenMode::kRead);
    std::size_t off = 0;
    while (off < got.size()) {
      const std::size_t n = f->read(got.data() + off, kChunk);
      ASSERT_GT(n, 0u) << "short file at offset " << off;
      off += n;
    }
    // Zero bytes back at EOF, not an error.
    char extra = 0;
    EXPECT_EQ(f->read(&extra, 1), 0u);
    f->close();
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);
  // The storm must actually have been a storm, or the test proves nothing.
  EXPECT_GT(SigchldStorm::delivered(), 0);
}

TEST(IoEintr, AtomicFileCommitsDurablyUnderTheStorm) {
  TempDir dir;
  const std::string final_path = dir.str() + "/published.bin";
  const auto want = pattern_bytes(1u << 20);
  SigchldStorm storm;
  for (int round = 0; round < 4; ++round) {
    AtomicFile file(real_vfs(), final_path);
    file.stream().write(want.data(),
                        static_cast<std::streamsize>(want.size()));
    file.commit();  // flush + fsync(tmp) + rename + fsync(dir), all stormed
  }
  std::vector<char> got(want.size());
  auto f = real_vfs().open(final_path, Vfs::OpenMode::kRead);
  std::size_t off = 0;
  while (off < got.size()) {
    const std::size_t n = f->read(got.data() + off, got.size() - off);
    ASSERT_GT(n, 0u);
    off += n;
  }
  f->close();
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);
  EXPECT_FALSE(real_vfs().exists(final_path + ".tmp"));
  EXPECT_GT(SigchldStorm::delivered(), 0);
}

TEST(IoEintr, DirectoryListingSurvivesTheStorm) {
  TempDir dir;
  for (int i = 0; i < 64; ++i) {
    auto f = real_vfs().open(dir.str() + "/f" + std::to_string(i),
                             Vfs::OpenMode::kTruncate);
    f->write("x", 1);
    f->close();
  }
  SigchldStorm storm;
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(real_vfs().list(dir.str()).size(), 64u);
  }
}

TEST(IoEintr, RealSigchldFromAForkExitStormIsHarmless) {
  // Not synthesized signals this time: actual children exiting while the
  // main thread runs the write/fsync/read cycle — the exact shape the
  // shard coordinator's SIGCHLD traffic takes.
  struct sigaction sa = {};
  sa.sa_handler = count_sigchld;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old = {};
  ::sigaction(SIGCHLD, &sa, &old);
  g_signals.store(0, std::memory_order_relaxed);

  std::atomic<bool> stop{false};
  std::vector<pid_t> kids;
  std::thread forker([&] {
    while (!stop.load(std::memory_order_acquire) && kids.size() < 300) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::_exit(0);
      }
      if (pid > 0) {
        kids.push_back(pid);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  TempDir dir;
  const std::string path = dir.str() + "/snap.bin";
  const auto want = pattern_bytes(2u << 20);
  for (int round = 0; round < 6; ++round) {
    AtomicFile file(real_vfs(), path);
    file.stream().write(want.data(),
                        static_cast<std::streamsize>(want.size()));
    file.commit();
    auto f = real_vfs().open(path, Vfs::OpenMode::kRead);
    std::vector<char> got(want.size());
    std::size_t off = 0;
    while (off < got.size()) {
      const std::size_t n = f->read(got.data() + off, got.size() - off);
      ASSERT_GT(n, 0u);
      off += n;
    }
    f->close();
    ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);
  }

  stop.store(true, std::memory_order_release);
  forker.join();
  for (const pid_t pid : kids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  ::sigaction(SIGCHLD, &old, nullptr);
  EXPECT_GT(kids.size(), 0u);
}

TEST(IoEintr, ThreadPoolRegionsCompleteUnderTheStorm) {
  // The pool's futex waits (std::atomic::wait) and the region protocol
  // must be oblivious to signal interruptions on any member thread.
  runtime::ThreadPool pool(4);
  constexpr std::size_t kItems = 1u << 16;
  SigchldStorm storm;
  // At least 200 rounds, and on until a signal has landed while a region
  // was running: 200 short rounds can finish before the storm thread
  // sends its first signal. The deadline bounds a storm that never hits.
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  bool hit_a_region = false;
  for (int round = 0;
       round < 200 || (!hit_a_region && Clock::now() < deadline); ++round) {
    const int before = SigchldStorm::delivered();
    std::atomic<std::uint64_t> sum{0};
    pool.run([&](std::size_t tid) {
      std::uint64_t local = 0;
      for (std::size_t i = tid; i < kItems; i += 4) {
        local += i;
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(),
              static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
    hit_a_region = hit_a_region || SigchldStorm::delivered() > before;
  }
  EXPECT_GT(SigchldStorm::delivered(), 0);
}

}  // namespace
}  // namespace ipregel::io
