#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace ipregel::shard {

/// One anonymous MAP_SHARED mapping, created by the coordinator BEFORE
/// forking workers so every process inherits the same physical pages —
/// the data plane of the sharded runtime. Holds the N*(N-1) shard-to-
/// shard message rings plus the result board the coordinator reads final
/// vertex values from.
///
/// The mapping outlives any worker incarnation: a SIGKILLed worker's
/// rings keep their contents, and its respawn inherits them at the same
/// addresses (the mapping predates every fork), so undelivered frames
/// survive the crash and in-flight cursors stay meaningful.
class ShmArena {
 public:
  /// Maps `bytes` of zeroed shared memory (at least one byte: a one-shard
  /// run of an empty graph has no ring and an empty board). Throws
  /// std::runtime_error when mmap fails.
  explicit ShmArena(std::size_t bytes);
  ~ShmArena();

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  [[nodiscard]] void* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint8_t* at(std::size_t offset) const noexcept {
    return static_cast<std::uint8_t*>(base_) + offset;
  }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Frame header preceding every payload in a ring. One frame carries one
/// (source shard, superstep) combined batch; an empty batch still posts a
/// zero-payload frame so receivers can advance their per-source cursor
/// without timing heuristics.
///
/// The header IS the network wire header: rings and TCP streams speak the
/// same CRC32-sealed frame envelope, so the frame-protocol tests (and the
/// corruption sweep) cover both transports with one format. try_push
/// seals the CRC; try_pop verifies it and throws net::WireError on
/// corruption — a torn shared mapping is detected, never silently
/// consumed.
using FrameHeader = net::WireHeader;

/// A popped frame: header plus payload bytes (copied out of the ring).
using Frame = net::Frame;

/// Single-producer single-consumer byte ring over shared memory — the
/// transport under one directed shard pair. Cursors are monotonically
/// increasing byte positions (never wrapped), stored as lock-free
/// std::atomic<uint64_t> directly in the shared mapping; data indices are
/// position % capacity.
///
/// Crash safety is by construction: a producer copies header+payload into
/// the data area FIRST and publishes with a release store to `tail` LAST,
/// so a producer killed mid-push leaves the ring exactly as before the
/// push (the bytes past `tail` are invisible and its respawn rewrites
/// them). A consumer advances `head` only after copying a complete frame
/// out, so a consumer killed mid-pop re-reads the same frame after
/// respawn. SPSC holds across incarnations because at most one
/// incarnation of a shard is alive at a time (the coordinator waitpid()s
/// the corpse before forking the replacement).
class SpscRing {
 public:
  SpscRing() = default;

  /// Shared-memory footprint of a ring with `capacity` data bytes.
  [[nodiscard]] static std::size_t bytes_required(
      std::size_t capacity) noexcept;

  /// Attaches to ring memory at `mem` (inside a ShmArena). `initialize`
  /// is set only by the coordinator pre-fork; workers attach to the
  /// already-initialised header.
  void attach(void* mem, std::size_t capacity, bool initialize) noexcept;

  /// Free data bytes right now (racy snapshot; monotone for the producer).
  [[nodiscard]] std::size_t free_bytes() const noexcept;

  /// Pushes one kData frame (CRC-sealed); returns false when it does not
  /// currently fit (the producer must drain-or-retry — rings are sized so
  /// a full superstep batch always fits twice, making persistent falses a
  /// peer-death symptom, not a flow-control state).
  [[nodiscard]] bool try_push(std::uint32_t src, std::uint64_t superstep,
                              std::span<const std::uint8_t> payload) noexcept;

  /// Pops one complete frame if available. Throws net::WireError when the
  /// frame fails validation (bad kind, length exceeding the ring, CRC
  /// mismatch) — corruption of the shared mapping is typed, not consumed.
  [[nodiscard]] std::optional<Frame> try_pop();

 private:
  struct Header {
    std::atomic<std::uint64_t> tail;  // producer cursor (bytes written)
    char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint64_t> head;  // consumer cursor (bytes consumed)
    char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
    std::uint64_t capacity;
  };
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "cross-process ring cursors must be address-free");

  void copy_in(std::uint64_t pos, const void* src, std::size_t n) noexcept;
  void copy_out(std::uint64_t pos, void* dst, std::size_t n) const noexcept;

  Header* header_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace ipregel::shard
