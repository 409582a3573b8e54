#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "shard/channel.hpp"
#include "shard/ring.hpp"
#include "store/page_cache.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

double dispatch_us(ipregel::runtime::ThreadPool& pool) {
  constexpr int kBatches = 15;
  constexpr int kPerBatch = 2000;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      pool.run([](std::size_t) {});
    }
    per_call.push_back(seconds_since(t0) * 1e6 / kPerBatch);
  }
  return median_of(per_call);
}

double pin_ns(const ipregel::store::PagedStore& store, std::size_t threads) {
  namespace st = ipregel::store;
  if (store.num_pages() < threads) {
    throw std::runtime_error("pin probe: store has too few pages");
  }
  st::PageCache cache(store,
                      {.budget_bytes = store.num_pages() * store.page_bytes()});
  for (std::size_t t = 0; t < threads; ++t) {
    (void)cache.pin(t);  // load once; every timed pin is a hit
  }
  constexpr std::size_t kPins = 400'000;
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> seconds(threads);
  std::vector<std::thread> team;
  for (std::size_t t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kPins; ++i) {
        const st::PageCache::Pin pin = cache.pin(t);
        if (pin.data() == nullptr) {
          std::terminate();
        }
      }
      seconds[t] = seconds_since(t0);
    });
  }
  while (ready.load() != threads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : team) {
    th.join();
  }
  return *std::max_element(seconds.begin(), seconds.end()) * 1e9 /
         static_cast<double>(kPins);
}

double ring_gbps(std::size_t frame_bytes) {
  namespace sh = ipregel::shard;
  // Room for four frames, as a shard ring holds a few supersteps in flight.
  const std::size_t capacity = 4 * (frame_bytes + sizeof(sh::FrameHeader));
  sh::ShmArena arena(sh::SpscRing::bytes_required(capacity));
  sh::SpscRing producer;
  sh::SpscRing consumer;
  producer.attach(arena.base(), capacity, /*initialize=*/true);
  consumer.attach(arena.base(), capacity, /*initialize=*/false);
  const std::vector<std::uint8_t> payload(frame_bytes, 0x5A);
  constexpr std::uint64_t kFrames = 100;
  std::size_t received = 0;
  const auto t0 = Clock::now();
  std::thread consumer_thread([&] {
    for (std::uint64_t i = 0; i < kFrames;) {
      if (auto frame = consumer.try_pop()) {
        received += frame->payload.size();
        ++i;
      }
    }
  });
  for (std::uint64_t i = 0; i < kFrames;) {
    if (producer.try_push(0, i, payload)) {
      ++i;
    }
  }
  consumer_thread.join();
  const double s = seconds_since(t0);
  if (received != kFrames * frame_bytes) {
    throw std::runtime_error("ring probe: bytes lost");
  }
  return static_cast<double>(received) / s * 1e-9;
}

double ctrl_rtt_us() {
  namespace sh = ipregel::shard;
  auto [a, b] = sh::Channel::make_pair();
  constexpr int kBatches = 11;
  constexpr int kPerBatch = 400;
  std::thread echo([&b = b] {
    for (int i = 0; i < kBatches * kPerBatch; ++i) {
      const auto msg = b.recv(5000);
      if (!msg || !b.send(*msg)) {
        return;
      }
    }
  });
  std::vector<double> per_trip;
  sh::CtrlMsg ping;
  ping.kind = sh::CtrlMsg::Kind::kBarrier;
  bool ok = true;
  for (int batch = 0; batch < kBatches && ok; ++batch) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kPerBatch && ok; ++i) {
      ping.superstep = static_cast<std::uint64_t>(i);
      ok = a.send(ping) && a.recv(5000).has_value();
    }
    per_trip.push_back(seconds_since(t0) * 1e6 / kPerBatch);
  }
  echo.join();
  if (!ok) {
    throw std::runtime_error("ctrl probe: channel failed");
  }
  return median_of(per_trip);
}

double host_ref_s() {
  constexpr std::size_t kWords = std::size_t{1} << 16;  // 256 KiB
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kWords);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (auto& w : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = static_cast<std::uint32_t>(x & (kWords - 1));
    }
    return t;
  }();
  const auto t0 = Clock::now();
  std::uint32_t at = 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < 300'000; ++i) {
    at = table[at];
    acc = (acc ^ at) * 0x100000001B3ULL;
    for (int k = 0; k < 24; ++k) {
      acc = (acc << 7 | acc >> 57) + 0x9E3779B97F4A7C15ULL;
    }
  }
  const double s = seconds_since(t0);
  if (acc == 42) {  // keeps the loop observable
    throw std::runtime_error("host reference loop degenerated");
  }
  return s;
}

}  // namespace perfbench
