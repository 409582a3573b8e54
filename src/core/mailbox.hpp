#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "runtime/memory_tracker.hpp"
#include "runtime/spin_lock.hpp"

namespace ipregel {

/// The `Lock` of a store that is only ever filled by owner-only writes:
/// no lock is allocated at all.
struct NoLock {};

/// Single-message mailboxes for all three combiners (paper section 6).
///
/// With a combiner, a slot is either empty or holds exactly one combined
/// message, so the whole message layer is two flat arrays (message + flag)
/// per generation — no dynamically resizable queues, which is the heart of
/// the paper's memory-footprint argument. Slots are double-buffered by
/// superstep parity: messages sent during superstep S land in generation
/// (S+1)&1 while generation S&1 is being read, which is the BSP
/// message-visibility rule.
///
/// A generation is filled in one of two directions, and is read the way it
/// was filled:
///  - push (sections 6.1/6.3): a sender `deliver`s into the *recipient's*
///    slot, which is then an inbox the recipient `consume`s. Multiple
///    senders may target one recipient concurrently, so each slot is
///    guarded by one `Lock` — std::mutex for the block-waiting version (40
///    bytes on this toolchain) or runtime::SpinLock for the busy-waiting
///    one (4 bytes), the 90% data-race-protection reduction of section 6.1.
///  - pull (section 6.2): a sender `arm`s its *own* slot, which is then an
///    outbox its out-neighbours `fetch` during the next superstep. Writes
///    are owner-only and cross-vertex reads are read-only, so a pull-only
///    store (`Lock = NoLock`) holds no lock at all. Fetching does not
///    consume, so the engine wipes a pull-read generation with
///    `clear_range` (a halted vertex would otherwise leave a stale
///    broadcast visible two supersteps later).
/// Because both directions share the arrays, an engine can switch
/// direction between supersteps without allocating anything.
///
/// Reading needs no lock either way: generation S&1 is never written
/// during superstep S.
template <typename Msg, typename Lock = NoLock>
class Mailboxes {
  static constexpr bool kLocked = !std::is_same_v<Lock, NoLock>;

 public:
  explicit Mailboxes(std::size_t num_slots)
      : msg_{std::vector<Msg>(num_slots), std::vector<Msg>(num_slots)},
        has_{std::vector<std::uint8_t>(num_slots, 0),
             std::vector<std::uint8_t>(num_slots, 0)},
        locks_(kLocked ? num_slots : 0),
        mem_(kLocked ? runtime::MemCategory::kMailboxes
                     : runtime::MemCategory::kOutboxes,
             2 * num_slots * (sizeof(Msg) + sizeof(std::uint8_t))),
        lock_mem_(runtime::MemCategory::kLocks,
                  locks_.size() * lock_bytes_per_vertex()) {}

  /// Push: delivers `msg` into `slot`'s generation-`gen` inbox, combining
  /// with an existing message via `combine(Msg& old, const Msg& incoming)`.
  /// Returns true when the inbox was empty (first message this
  /// generation) — the selection bypass uses this to claim the recipient.
  template <typename Combine>
  bool deliver(unsigned gen, std::size_t slot, const Msg& msg,
               Combine&& combine)
    requires kLocked
  {
    std::lock_guard<Lock> guard(locks_[slot]);
    if (has_[gen][slot] != 0) {
      combine(msg_[gen][slot], msg);
      return false;
    }
    msg_[gen][slot] = msg;
    has_[gen][slot] = 1;
    return true;
  }

  /// Push: takes the combined message of generation `gen` for `slot`,
  /// clearing the flag. Owner-thread only.
  bool consume(unsigned gen, std::size_t slot, Msg& out) noexcept {
    if (has_[gen][slot] == 0) {
      return false;
    }
    has_[gen][slot] = 0;
    out = msg_[gen][slot];
    return true;
  }

  /// Pull: arms `slot`'s generation-`gen` outbox. Owner-thread only.
  void arm(unsigned gen, std::size_t slot, const Msg& msg) noexcept {
    msg_[gen][slot] = msg;
    has_[gen][slot] = 1;
  }

  /// Pull: reads `slot`'s generation-`gen` outbox if armed (not consumed:
  /// every out-neighbour reads the same value).
  bool fetch(unsigned gen, std::size_t slot, Msg& out) const noexcept {
    if (has_[gen][slot] == 0) {
      return false;
    }
    out = msg_[gen][slot];
    return true;
  }

  /// True when `slot` holds a message in generation `gen`.
  [[nodiscard]] bool has_message(unsigned gen,
                                 std::size_t slot) const noexcept {
    return has_[gen][slot] != 0;
  }

  [[nodiscard]] static constexpr std::size_t lock_bytes_per_vertex() noexcept {
    if constexpr (kLocked) {
      return sizeof(Lock);
    } else {
      return 0;
    }
  }

  /// Wipes the flags of generation `gen` for slots [begin, end).
  void clear_range(unsigned gen, std::size_t begin, std::size_t end) noexcept {
    std::fill_n(has_[gen].data() + begin, end - begin, std::uint8_t{0});
  }

  /// Empties both generations (between independent runs of an engine).
  void reset() noexcept {
    std::fill(has_[0].begin(), has_[0].end(), std::uint8_t{0});
    std::fill(has_[1].begin(), has_[1].end(), std::uint8_t{0});
  }

  /// Raw views of one generation, for checkpoint capture and integrity
  /// digests at the superstep barrier (no write is concurrent with the
  /// barrier, so these are stable to read).
  [[nodiscard]] std::span<const Msg> messages(unsigned gen) const noexcept {
    return msg_[gen];
  }
  [[nodiscard]] std::span<const std::uint8_t> flags(
      unsigned gen) const noexcept {
    return has_[gen];
  }

  /// Restores one generation from a snapshot (the other is cleared);
  /// checkpoint recovery only.
  void restore(unsigned gen, std::span<const Msg> messages,
               std::span<const std::uint8_t> flags) noexcept {
    reset();
    std::copy(messages.begin(), messages.end(), msg_[gen].begin());
    std::copy(flags.begin(), flags.end(), has_[gen].begin());
  }

  /// Mutable raw views — integrity::FlipPlan fault injection ONLY (the
  /// engine corrupts a quiescent generation at a superstep barrier).
  [[nodiscard]] std::span<Msg> corrupt_messages(unsigned gen) noexcept {
    return msg_[gen];
  }
  [[nodiscard]] std::span<std::uint8_t> corrupt_flags(unsigned gen) noexcept {
    return has_[gen];
  }

 private:
  std::vector<Msg> msg_[2];
  std::vector<std::uint8_t> has_[2];
  std::vector<Lock> locks_;
  runtime::MemReservation mem_;
  runtime::MemReservation lock_mem_;
};

}  // namespace ipregel
