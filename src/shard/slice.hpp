#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/program_traits.hpp"
#include "ft/checkpoint_contract.hpp"
#include "ft/snapshot.hpp"
#include "graph/csr.hpp"
#include "shard/partition.hpp"

namespace ipregel::shard {

using ft::kShardCombinerTag;

/// A shard worker's outbox sink: one dense outbox per destination shard,
/// indexed by the destination's local slot, combining as messages arrive.
/// Every message the worker's Engine sends lands here, self-destined ones
/// included, so a superstep's traffic leaves as one frame per destination
/// and folds in the same order whoever the destination is.
///
/// The frame format is the exchange's, and lives only here: take_outbox
/// writes [u64 count] then `count` (u32 local-dst-index, Msg) entries in
/// ascending index order, apply_frame reads them back, and
/// max_frame_bytes sizes the rings that carry them.
template <typename Msg>
class Outboxes {
 public:
  explicit Outboxes(const ShardPartition& part)
      : part_(part), boxes_(part.shards()) {
    for (std::size_t d = 0; d < part.shards(); ++d) {
      boxes_[d].msg.resize(part.size(d));
      boxes_[d].flag.assign(part.size(d), 0);
    }
  }

  /// Combines `msg` into the outbox of the shard owning absolute `slot`.
  template <typename Combine>
  void deliver(std::size_t slot, const Msg& msg, Combine&& combine) {
    Box& box = boxes_[part_.shard_of_slot(slot)];
    const std::size_t li = part_.local_index(slot);
    if (box.flag[li] != 0) {
      combine(box.msg[li], msg);
    } else {
      box.msg[li] = msg;
      box.flag[li] = 1;
      ++box.count;
    }
  }

  /// Serialises and clears the outbox for destination shard `dst`.
  /// Deterministic bytes for deterministic input — the redo-after-crash
  /// path replays identical frames.
  [[nodiscard]] std::vector<std::uint8_t> take_outbox(std::size_t dst) {
    Box& box = boxes_[dst];
    std::vector<std::uint8_t> payload(sizeof(std::uint64_t) +
                                      box.count * kEntryBytes);
    std::uint8_t* p = payload.data();
    const std::uint64_t count = box.count;
    std::memcpy(p, &count, sizeof(count));
    p += sizeof(count);
    if (box.count != 0) {
      for (std::uint32_t i = 0; i < box.flag.size(); ++i) {
        if (box.flag[i] == 0) {
          continue;
        }
        std::memcpy(p, &i, sizeof(i));
        std::memcpy(p + sizeof(i), &box.msg[i], sizeof(Msg));
        p += kEntryBytes;
        box.flag[i] = 0;
      }
      box.count = 0;
    }
    return payload;
  }

  /// Drops every outbox's contents.
  void clear() {
    for (std::size_t d = 0; d < boxes_.size(); ++d) {
      (void)take_outbox(d);
    }
  }

  /// Worst-case frame bytes one shard can send to `dst` in a superstep —
  /// the ring-sizing input.
  [[nodiscard]] static std::size_t max_frame_bytes(const ShardPartition& part,
                                                   std::size_t dst) noexcept {
    return sizeof(std::uint64_t) + part.size(dst) * kEntryBytes;
  }

 private:
  static constexpr std::size_t kEntryBytes =
      sizeof(std::uint32_t) + sizeof(Msg);

  struct Box {
    std::vector<Msg> msg;
    std::vector<std::uint8_t> flag;
    std::size_t count = 0;
  };

  const ShardPartition& part_;
  std::vector<Box> boxes_;
};

/// Folds one frame (take_outbox's format) into `engine`'s inbox for its
/// next superstep. Frames must be applied in ascending source-shard order
/// for bit-reproducible folds; the worker's cursor machinery guarantees
/// it.
template <typename Receiver>
void apply_frame(std::span<const std::uint8_t> payload, Receiver& engine) {
  using Msg = typename Receiver::Msg;
  constexpr std::size_t kEntryBytes = sizeof(std::uint32_t) + sizeof(Msg);
  const std::uint8_t* p = payload.data();
  std::uint64_t count = 0;
  std::memcpy(&count, p, sizeof(count));
  p += sizeof(count);
  for (std::uint64_t e = 0; e < count; ++e) {
    std::uint32_t li = 0;
    Msg m;
    std::memcpy(&li, p, sizeof(li));
    std::memcpy(&m, p + sizeof(li), sizeof(Msg));
    p += kEntryBytes;
    engine.receive(li, m);
  }
}

/// One shard's view of the shared CSR, as an Engine topology: its owned
/// slots, renumbered 0..n in ascending slot order (the local index of
/// ShardPartition), with every edge query forwarded to the CSR — the
/// store::PagedGraph pattern over a slice instead of a page cache. Vertex
/// ids and the graph's shape stay global, so compute() sees the same
/// context it would in a single process.
///
/// What only a slice does, the Engine finds by probing for it:
///  - route(): every delivery goes to the destination shard's outbox in
///    `sink`, never into the engine's own mailboxes;
///  - bind_snapshot(): snapshots bind as a shard slice — the shard
///    combiner tag, the owned slot range, the run's graph fingerprint and
///    the shard-bound program fingerprint (shard_fingerprint).
/// A slice has no in-neighbours, so only push engines run on it.
template <typename Msg>
class SliceTopology {
 public:
  SliceTopology(const graph::CsrGraph& graph, const ShardPartition& part,
                std::size_t me, std::uint64_t graph_fp, Outboxes<Msg>& sink)
      : graph_(graph),
        part_(part),
        me_(me),
        slots_(part.owned_slots(me)),
        graph_fp_(graph_fp),
        sink_(sink) {}

  SliceTopology(const SliceTopology&) = delete;
  SliceTopology& operator=(const SliceTopology&) = delete;

  /// The absolute slot of every local index, ascending.
  [[nodiscard]] std::span<const std::size_t> owned_slots() const noexcept {
    return slots_;
  }

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t first_slot() const noexcept { return 0; }
  [[nodiscard]] graph::eid_t num_edges() const noexcept {
    return graph_.num_edges();
  }
  [[nodiscard]] bool has_in_edges() const noexcept { return false; }

  /// Local index of an owned vertex.
  [[nodiscard]] std::size_t slot_of(graph::vid_t id) const noexcept {
    return part_.local_index(graph_.slot_of(id));
  }
  [[nodiscard]] graph::vid_t id_of(std::size_t local) const noexcept {
    return graph_.id_of(slots_[local]);
  }

  [[nodiscard]] std::size_t out_degree(std::size_t local) const noexcept {
    return graph_.out_degree(slots_[local]);
  }
  [[nodiscard]] std::span<const graph::vid_t> out_neighbours(
      std::size_t local) const noexcept {
    return graph_.out_neighbours(slots_[local]);
  }
  [[nodiscard]] std::span<const graph::weight_t> out_weights(
      std::size_t local) const noexcept {
    return graph_.out_weights(slots_[local]);
  }

  using Cursor = graph::CsrGraph::Cursor;

  template <typename Fn>
  void for_each_out_target(std::size_t local, Cursor& cursor,
                           Fn&& fn) const {
    graph_.for_each_out_target(slots_[local], cursor, fn);
  }

  /// Delivers a message to vertex `dst`, wherever it lives, through the
  /// outbox sink.
  template <typename Combine>
  void route(graph::vid_t dst, const Msg& msg, Combine&& combine) const {
    sink_.deliver(graph_.slot_of(dst), msg, combine);
  }

  /// Rebinds an engine's snapshot identity to this slice.
  void bind_snapshot(ft::SnapshotMeta& meta) const noexcept {
    meta.combiner = kShardCombinerTag;
    meta.first_slot = slots_.empty() ? 0 : slots_.front();
    meta.graph_fingerprint = graph_fp_;
    meta.program_fingerprint = shard_fingerprint(
        meta.program_fingerprint, part_.shards(), me_, part_.scheme());
  }

 private:
  const graph::CsrGraph& graph_;
  const ShardPartition& part_;
  std::size_t me_;
  std::vector<std::size_t> slots_;
  std::uint64_t graph_fp_;
  Outboxes<Msg>& sink_;
};

/// One shard's compute state, wired in construction order: the outbox
/// sink, the slice topology over it, and the one Engine over that. Workers
/// are single-threaded: parallelism in the sharded mode comes from
/// processes, which keeps every worker's fold order deterministic (local
/// slot order), keeps heartbeats progress-coupled, and lets the whole
/// thing run under fork() without threading caveats.
template <VertexProgram Program>
struct Slice {
  using Msg = typename Program::message_type;
  using SliceEngine = Engine<Program, CombinerKind::kSpinlockPush, false,
                             SliceTopology<Msg>>;

  Slice(const graph::CsrGraph& graph, const Program& program,
        const ShardPartition& part, std::size_t me, std::uint64_t graph_fp)
      : outboxes(part),
        topology(graph, part, me, graph_fp, outboxes),
        engine(topology, program, EngineOptions{.threads = 1}) {}

  /// Raw value bytes of the slice, in local index order.
  [[nodiscard]] std::span<const std::uint8_t> value_bytes() const noexcept {
    const auto values = engine.values();
    return {reinterpret_cast<const std::uint8_t*>(values.data()),
            values.size_bytes()};
  }

  Outboxes<Msg> outboxes;
  SliceTopology<Msg> topology;
  SliceEngine engine;
};

}  // namespace ipregel::shard
