#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/aggregator_traits.hpp"
#include "core/program_traits.hpp"
#include "ft/checkpoint_contract.hpp"
#include "ft/snapshot.hpp"
#include "graph/csr.hpp"
#include "runtime/partition.hpp"
#include "shard/partition.hpp"

namespace ipregel::shard {

namespace detail {
/// P::aggregate_type when present, an empty placeholder otherwise — lets
/// ShardEngine hold aggregate state unconditionally without instantiating
/// a missing member type.
template <typename P, bool = HasAggregator<P>>
struct AggregateOf {
  using type = typename P::aggregate_type;
};
template <typename P>
struct AggregateOf<P, false> {
  struct type {};
};
}  // namespace detail

using ft::kShardCombinerTag;

/// The per-worker compute core of a sharded run: one shard's slice of
/// vertex state plus dense per-destination outboxes, with the engine's
/// exact selection rule and Context surface. Single-threaded by design —
/// parallelism in the sharded mode comes from processes, which keeps
/// every worker's combine order deterministic (local slot order), makes
/// heartbeats progress-coupled, and lets the whole thing run under fork()
/// without threading caveats.
///
/// Holds no process machinery: rings, sockets, and checkpoint policy live
/// in worker.hpp/coordinator.hpp. This class is pure state + transitions,
/// which is what makes it unit-testable in-process (tests/test_shard_engine
/// drives two of them against each other with plain byte vectors).
template <VertexProgram Program>
class ShardEngine {
 public:
  using Value = typename Program::value_type;
  using Msg = typename Program::message_type;

  static constexpr bool kHasAggregator = HasAggregator<Program>;

  ShardEngine(const graph::CsrGraph& graph, Program program,
              const ShardPartition& part, std::size_t me)
      : graph_(graph),
        program_(std::move(program)),
        part_(part),
        me_(me),
        n_local_(part.size(me)),
        first_owned_(n_local_ != 0 ? part.slot_at(me, 0) : 0) {
    const std::size_t n = n_local_;
    values_.resize(n);
    halted_.assign(n, 0);
    in_msg_.resize(n);
    in_flag_.assign(n, 0);
    nx_msg_.resize(n);
    nx_flag_.assign(n, 0);
    out_.resize(part_.shards());
    for (std::size_t d = 0; d < part_.shards(); ++d) {
      out_[d].msg.resize(part_.size(d));
      out_[d].flag.assign(part_.size(d), 0);
      out_[d].count = 0;
    }
    if constexpr (kHasAggregator) {
      partial_ = Program::aggregate_identity();
      aggregated_ = Program::aggregate_identity();
    }
  }

  /// Slots this shard owns. Local indices 0..local_size() enumerate them
  /// in ascending slot order under every partition scheme.
  [[nodiscard]] std::size_t local_size() const noexcept { return n_local_; }

  /// Fresh superstep-0 state (initial values, nothing halted, empty
  /// mailboxes).
  void initialize() {
    for (std::size_t li = 0; li < n_local_; ++li) {
      values_[li] = program_.initial_value(graph_.id_of(part_.slot_at(me_, li)));
    }
    std::fill(halted_.begin(), halted_.end(), 0);
    std::fill(in_flag_.begin(), in_flag_.end(), 0);
    std::fill(nx_flag_.begin(), nx_flag_.end(), 0);
    for (auto& ob : out_) {
      std::fill(ob.flag.begin(), ob.flag.end(), 0);
      ob.count = 0;
    }
    if constexpr (kHasAggregator) {
      partial_ = Program::aggregate_identity();
      aggregated_ = Program::aggregate_identity();
    }
  }

  struct StepCounts {
    std::uint64_t sent = 0;
    std::uint64_t executed = 0;
    std::uint64_t active = 0;
  };

  /// Runs one superstep over the local slice: the engine's selection rule
  /// (execute iff pending message, superstep 0, or not halted), compute,
  /// vote collection. Deliveries land combined in the per-destination
  /// outboxes. `tick(executed_so_far)` fires every few vertices and once
  /// after the loop — the worker hangs heartbeats and fault injection on
  /// it.
  template <typename Tick>
  StepCounts compute_superstep(std::uint64_t superstep, Tick&& tick) {
    superstep_ = superstep;
    resend_mode_ = false;
    sent_ = 0;
    StepCounts counts;
    for (std::size_t li = 0; li < n_local_; ++li) {
      const std::size_t slot = part_.slot_at(me_, li);
      const bool has = in_flag_[li] != 0;
      if (!has && superstep > 0 && halted_[li] != 0) {
        continue;
      }
      Context ctx(*this, slot, li, has ? &in_msg_[li] : nullptr);
      program_.compute(ctx);
      halted_[li] = ctx.voted_ ? 1 : 0;
      ++counts.executed;
      if ((counts.executed & 7) == 0) {
        tick(counts.executed);
      }
    }
    std::fill(in_flag_.begin(), in_flag_.end(), 0);
    counts.sent = sent_;
    counts.active = static_cast<std::uint64_t>(
        std::count(halted_.begin(), halted_.end(), std::uint8_t{0}));
    tick(counts.executed);
    return counts;
  }

  /// Serialises and clears the outbox for destination shard `dst`:
  /// [u64 count] then `count` (u32 local-dst-index, Msg) entries in
  /// ascending index order. Deterministic bytes for deterministic input —
  /// the redo-after-crash path replays identical frames.
  [[nodiscard]] std::vector<std::uint8_t> take_outbox(std::size_t dst) {
    Outbox& ob = out_[dst];
    std::vector<std::uint8_t> payload(sizeof(std::uint64_t) +
                                      ob.count * kEntryBytes);
    std::uint8_t* p = payload.data();
    const std::uint64_t count = ob.count;
    std::memcpy(p, &count, sizeof(count));
    p += sizeof(count);
    if (ob.count != 0) {
      for (std::uint32_t i = 0; i < ob.flag.size(); ++i) {
        if (ob.flag[i] == 0) {
          continue;
        }
        std::memcpy(p, &i, sizeof(i));
        std::memcpy(p + sizeof(i), &ob.msg[i], sizeof(Msg));
        p += kEntryBytes;
        ob.flag[i] = 0;
      }
      ob.count = 0;
    }
    return payload;
  }

  /// Applies one serialised frame to the NEXT inbox (normal exchange) or
  /// the CURRENT one (lightweight-recovery rebuild), combining per slot.
  /// Frames must be applied in ascending source-shard order for
  /// bit-reproducible folds; the worker's cursor machinery guarantees it.
  void apply_frame(std::span<const std::uint8_t> payload, bool into_current) {
    auto& msg = into_current ? in_msg_ : nx_msg_;
    auto& flag = into_current ? in_flag_ : nx_flag_;
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
      if (flag[li] != 0) {
        Program::combine(msg[li], m);
      } else {
        msg[li] = m;
        flag[li] = 1;
      }
    }
  }

  /// Barrier commit: the next inbox becomes current.
  void advance() {
    in_msg_.swap(nx_msg_);
    in_flag_.swap(nx_flag_);
    std::fill(nx_flag_.begin(), nx_flag_.end(), 0);
  }

  /// Raw value bytes of the local slice, for the shared result board.
  [[nodiscard]] std::span<const std::uint8_t> value_bytes() const noexcept {
    return {reinterpret_cast<const std::uint8_t*>(values_.data()),
            values_.size() * sizeof(Value)};
  }

  /// Lightweight-recovery message regeneration, self-destined slice only:
  /// replays Program::resend for every local vertex AS superstep
  /// `resume - 1`, routing deliveries through the self-outbox (identical
  /// fold shape to the original exchange), and applies that synthesized
  /// frame to the CURRENT inbox. The worker interleaves this at source
  /// position `me` between the survivors' republished frames, so the
  /// rebuilt inbox folds in exactly the original source order.
  void resend_self(std::uint64_t resume) {
    if (resume == 0) {
      return;  // superstep 0 has no inbox
    }
    if constexpr (ft::kResendCapable<Program>) {
      superstep_ = resume - 1;
      resend_mode_ = true;
      for (std::size_t li = 0; li < n_local_; ++li) {
        Context ctx(*this, part_.slot_at(me_, li), li, nullptr);
        program_.resend(ctx);
      }
      resend_mode_ = false;
      const std::vector<std::uint8_t> frame = take_outbox(me_);
      apply_frame(frame, /*into_current=*/true);
      // Remote-destined regenerated messages are not ours to deliver —
      // the survivors' own state already reflects them.
      for (std::size_t d = 0; d < out_.size(); ++d) {
        if (d != me_) {
          std::fill(out_[d].flag.begin(), out_[d].flag.end(), 0);
          out_[d].count = 0;
        }
      }
    }
  }

  /// Full-era lightweight rebuild: replays Program::resend for every local
  /// vertex AS superstep `resume - 1`, filling the per-destination outboxes
  /// for ALL shards (unlike resend_self, which keeps only the self slice).
  /// Used when every shard restarts at the same cut — nobody retained the
  /// original frames, so each shard regenerates its own outgoing slice and
  /// pushes it; the caller then applies peers' regenerated frames plus the
  /// self outbox (take_outbox(me), into_current) in ascending source order,
  /// the same fold shape as the original exchange.
  void regenerate_all(std::uint64_t resume) {
    if (resume == 0) {
      return;  // superstep 0 has no inbox
    }
    if constexpr (ft::kResendCapable<Program>) {
      superstep_ = resume - 1;
      resend_mode_ = true;
      for (std::size_t li = 0; li < n_local_; ++li) {
        Context ctx(*this, part_.slot_at(me_, li), li, nullptr);
        program_.resend(ctx);
      }
      resend_mode_ = false;
    }
  }

  // --- aggregator plumbing (cross-shard reduction) -----------------------

  /// This superstep's local partial, reset to identity for the next one.
  template <typename P = Program>
    requires HasSerializableAggregator<P>
  [[nodiscard]] std::vector<std::uint8_t> take_aggregate_partial() {
    auto bytes = aggregate_to_bytes<P>(partial_);
    partial_ = P::aggregate_identity();
    return bytes;
  }

  /// Installs the coordinator's globally folded aggregate (visible to the
  /// next superstep via ctx.aggregated()).
  template <typename P = Program>
    requires HasSerializableAggregator<P>
  void set_aggregated(std::span<const std::uint8_t> bytes) {
    aggregated_ = aggregate_from_bytes<P>(bytes);
  }

  // --- per-shard snapshots ----------------------------------------------

  /// Captures this shard's slice as an EngineSnapshot whose meta binds
  /// (graph, program, shard topology): num_slots/first_slot describe the
  /// LOCAL range and program_fingerprint carries the shard-bound
  /// fingerprint, so the shared binding check rejects slices from a
  /// different shard count or index. The inbox stored is the CURRENT one —
  /// state as of "about to compute `resume`".
  [[nodiscard]] ft::EngineSnapshot capture(ft::CheckpointMode mode,
                                           std::uint64_t resume,
                                           std::uint64_t graph_fp,
                                           std::uint64_t bound_fp) const {
    ft::EngineSnapshot snap;
    snap.meta = ft::bound_meta(binding(graph_fp, bound_fp), mode, resume);
    snap.values.resize(values_.size() * sizeof(Value));
    std::memcpy(snap.values.data(), values_.data(), snap.values.size());
    snap.halted = halted_;
    if (mode == ft::CheckpointMode::kHeavyweight) {
      snap.inbox.resize(in_msg_.size() * sizeof(Msg));
      std::memcpy(snap.inbox.data(), in_msg_.data(), snap.inbox.size());
      snap.inbox_flags = in_flag_;
      if constexpr (HasSerializableAggregator<Program>) {
        snap.aggregate = aggregate_to_bytes<Program>(aggregated_);
        snap.meta.aggregate_size = sizeof(typename Program::aggregate_type);
      }
    }
    return snap;
  }

  /// Validates a parsed snapshot against this engine's binding
  /// (ft::binding_mismatch); returns nullptr when it fits or a static
  /// reason. Shaped for SnapshotDirectory::Validator so unusable
  /// candidates get QUARANTINED during the newest-first walk instead of
  /// aborting it — a slice from a different shard topology must never
  /// shadow this shard's own older snapshots.
  [[nodiscard]] const char* validate(const ft::EngineSnapshot& snap,
                                     std::uint64_t graph_fp,
                                     std::uint64_t bound_fp) const noexcept {
    return ft::binding_mismatch(snap.meta, binding(graph_fp, bound_fp));
  }

  /// Installs a validated snapshot. Heavyweight restores the inbox and
  /// aggregate exactly; lightweight leaves the inbox EMPTY — the caller
  /// must run the resend_self / republished-frame rebuild before
  /// computing.
  void restore(const ft::EngineSnapshot& snap) {
    std::memcpy(values_.data(), snap.values.data(), snap.values.size());
    std::copy(snap.halted.begin(), snap.halted.end(), halted_.begin());
    std::fill(in_flag_.begin(), in_flag_.end(), 0);
    std::fill(nx_flag_.begin(), nx_flag_.end(), 0);
    if (snap.meta.mode == ft::CheckpointMode::kHeavyweight) {
      if (!snap.inbox.empty()) {
        std::memcpy(in_msg_.data(), snap.inbox.data(), snap.inbox.size());
      }
      if (!snap.inbox_flags.empty()) {
        std::copy(snap.inbox_flags.begin(), snap.inbox_flags.end(),
                  in_flag_.begin());
      }
      if constexpr (HasSerializableAggregator<Program>) {
        set_aggregated(snap.aggregate);
      }
    }
  }

  /// Worst-case serialised frame bytes this shard can send to `dst` in
  /// one superstep — the ring-sizing input.
  [[nodiscard]] std::size_t max_frame_bytes(std::size_t dst) const noexcept {
    return sizeof(std::uint64_t) + part_.size(dst) * kEntryBytes;
  }

 private:
  static constexpr std::size_t kEntryBytes =
      sizeof(std::uint32_t) + sizeof(Msg);

  struct Outbox {
    std::vector<Msg> msg;
    std::vector<std::uint8_t> flag;
    std::size_t count = 0;
  };

  void deliver(graph::vid_t dst, const Msg& m) {
    const std::size_t slot = graph_.slot_of(dst);
    Outbox& ob = out_[part_.shard_of_slot(slot)];
    const std::size_t li = part_.local_index(slot);
    if (ob.flag[li] != 0) {
      Program::combine(ob.msg[li], m);
    } else {
      ob.msg[li] = m;
      ob.flag[li] = 1;
      ++ob.count;
    }
    // Resend regeneration replays past messages for recovery; it is not
    // new traffic (remote-destined regenerations are discarded by
    // resend_self) and must not skew the barrier's sent count.
    if (!resend_mode_) {
      ++sent_;
    }
  }

  class Context {
   public:
    bool get_next_message(Msg& out) noexcept {
      if (msg_ == nullptr) {
        return false;
      }
      out = *msg_;
      msg_ = nullptr;
      return true;
    }

    void broadcast(const Msg& msg) {
      for (const graph::vid_t v : engine_.graph_.out_neighbours(slot_)) {
        engine_.deliver(v, msg);
      }
    }
    void send_message(graph::vid_t dst, const Msg& msg) {
      engine_.deliver(dst, msg);
    }
    void vote_to_halt() noexcept { voted_ = true; }

    template <typename P = Program>
      requires HasAggregator<P>
    void aggregate(const typename P::aggregate_type& x) {
      P::aggregate(engine_.partial_, x);
    }
    template <typename P = Program>
      requires HasAggregator<P>
    [[nodiscard]] const typename P::aggregate_type& aggregated()
        const noexcept {
      return engine_.aggregated_;
    }

    [[nodiscard]] std::size_t superstep() const noexcept {
      return static_cast<std::size_t>(engine_.superstep_);
    }
    [[nodiscard]] bool is_first_superstep() const noexcept {
      return engine_.superstep_ == 0;
    }
    [[nodiscard]] std::size_t num_vertices() const noexcept {
      return engine_.graph_.num_vertices();
    }
    [[nodiscard]] graph::vid_t id() const noexcept {
      return engine_.graph_.id_of(slot_);
    }
    [[nodiscard]] Value& value() noexcept { return engine_.values_[li_]; }
    [[nodiscard]] const Value& value() const noexcept {
      return engine_.values_[li_];
    }
    [[nodiscard]] std::size_t out_degree() const noexcept {
      return engine_.graph_.out_degree(slot_);
    }
    [[nodiscard]] std::span<const graph::vid_t> out_neighbours()
        const noexcept {
      return engine_.graph_.out_neighbours(slot_);
    }
    [[nodiscard]] std::span<const graph::weight_t> out_weights()
        const noexcept {
      return engine_.graph_.out_weights(slot_);
    }

   private:
    friend class ShardEngine;
    Context(ShardEngine& engine, std::size_t slot, std::size_t li,
            const Msg* msg) noexcept
        : engine_(engine), slot_(slot), li_(li), msg_(msg) {}

    ShardEngine& engine_;
    std::size_t slot_;
    std::size_t li_;
    const Msg* msg_;
    bool voted_ = false;
  };
  friend class Context;

  /// This slice's snapshot identity (see ft::SnapshotBinding).
  [[nodiscard]] ft::SnapshotBinding binding(
      std::uint64_t graph_fp, std::uint64_t bound_fp) const noexcept {
    return {.meta = {.combiner = kShardCombinerTag,
                     .has_aggregator = kHasAggregator,
                     .num_slots = n_local_,
                     .first_slot = first_owned_,
                     .num_vertices = graph_.num_vertices(),
                     .num_edges = graph_.num_edges(),
                     .graph_fingerprint = graph_fp,
                     .program_fingerprint = bound_fp,
                     .value_size = sizeof(Value),
                     .message_size = sizeof(Msg)},
            .lightweight_capable = ft::kLightweightCapable<Program>};
  }

  using AggregateOrNothing = typename detail::AggregateOf<Program>::type;

  const graph::CsrGraph& graph_;
  Program program_;
  ShardPartition part_;
  std::size_t me_;
  std::size_t n_local_;
  std::size_t first_owned_;

  std::vector<Value> values_;
  std::vector<std::uint8_t> halted_;
  std::vector<Msg> in_msg_;
  std::vector<std::uint8_t> in_flag_;
  std::vector<Msg> nx_msg_;
  std::vector<std::uint8_t> nx_flag_;
  std::vector<Outbox> out_;

  std::uint64_t superstep_ = 0;
  std::uint64_t sent_ = 0;
  bool resend_mode_ = false;

  AggregateOrNothing partial_{};
  AggregateOrNothing aggregated_{};
};

}  // namespace ipregel::shard
