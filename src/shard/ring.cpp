#include "shard/ring.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace ipregel::shard {

ShmArena::ShmArena(std::size_t bytes)
    : size_(std::max<std::size_t>(bytes, 1)) {
  base_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    throw std::runtime_error("ShmArena: mmap of " + std::to_string(size_) +
                             " bytes failed: " +
                             std::string(std::strerror(errno)));
  }
}

ShmArena::~ShmArena() {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
  }
}

std::size_t SpscRing::bytes_required(std::size_t capacity) noexcept {
  return sizeof(Header) + capacity;
}

void SpscRing::attach(void* mem, std::size_t capacity,
                      bool initialize) noexcept {
  header_ = static_cast<Header*>(mem);
  data_ = static_cast<std::uint8_t*>(mem) + sizeof(Header);
  capacity_ = capacity;
  if (initialize) {
    // Placement-init the atomics in the shared page. Done once, pre-fork,
    // single-threaded — no concurrent attacher exists yet.
    new (&header_->tail) std::atomic<std::uint64_t>(0);
    new (&header_->head) std::atomic<std::uint64_t>(0);
    header_->capacity = capacity;
  }
}

std::size_t SpscRing::free_bytes() const noexcept {
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  return capacity_ - static_cast<std::size_t>(tail - head);
}

void SpscRing::copy_in(std::uint64_t pos, const void* src,
                       std::size_t n) noexcept {
  const std::size_t at = static_cast<std::size_t>(pos % capacity_);
  const std::size_t first = std::min(n, capacity_ - at);
  std::memcpy(data_ + at, src, first);
  if (first < n) {
    std::memcpy(data_, static_cast<const std::uint8_t*>(src) + first,
                n - first);
  }
}

void SpscRing::copy_out(std::uint64_t pos, void* dst,
                        std::size_t n) const noexcept {
  const std::size_t at = static_cast<std::size_t>(pos % capacity_);
  const std::size_t first = std::min(n, capacity_ - at);
  std::memcpy(dst, data_ + at, first);
  if (first < n) {
    std::memcpy(static_cast<std::uint8_t*>(dst) + first, data_, n - first);
  }
}

bool SpscRing::try_push(std::uint32_t src, std::uint64_t superstep,
                        std::span<const std::uint8_t> payload) noexcept {
  const std::size_t need = sizeof(FrameHeader) + payload.size();
  if (need > free_bytes()) {
    return false;
  }
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  FrameHeader fh;
  fh.kind = static_cast<std::uint16_t>(net::FrameKind::kData);
  fh.src = static_cast<std::uint16_t>(src);
  fh.superstep = superstep;
  net::seal_header(fh, payload);
  copy_in(tail, &fh, sizeof(fh));
  if (!payload.empty()) {
    copy_in(tail + sizeof(fh), payload.data(), payload.size());
  }
  // The release store is the commit point; death anywhere above leaves
  // the frame invisible.
  header_->tail.store(tail + need, std::memory_order_release);
  return true;
}

std::optional<Frame> SpscRing::try_pop() {
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  if (tail == head) {
    return std::nullopt;
  }
  Frame frame;
  copy_out(head, &frame.header, sizeof(frame.header));
  // Validate the length before trusting it for the payload copy and the
  // cursor advance: a corrupt payload_len would otherwise walk the
  // consumer cursor off into garbage forever.
  net::check_header(frame.header, capacity_ - sizeof(FrameHeader));
  frame.payload.resize(frame.header.payload_len);
  if (frame.header.payload_len != 0) {
    copy_out(head + sizeof(FrameHeader), frame.payload.data(),
             frame.header.payload_len);
  }
  net::check_frame(frame.header, frame.payload,
                   capacity_ - sizeof(FrameHeader));
  header_->head.store(head + sizeof(FrameHeader) + frame.header.payload_len,
                      std::memory_order_release);
  return frame;
}

}  // namespace ipregel::shard
