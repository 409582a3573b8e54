#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/aggregator_traits.hpp"
#include "core/config.hpp"
#include "core/frontier.hpp"
#include "core/mailbox.hpp"
#include "core/program_traits.hpp"
#include "ft/checkpoint_contract.hpp"
#include "ft/fingerprint.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "graph/csr.hpp"
#include "integrity/audit.hpp"
#include "integrity/checksum.hpp"
#include "integrity/fault.hpp"
#include "io/vfs.hpp"
#include "runtime/memory_tracker.hpp"
#include "runtime/spin_lock.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace ipregel {
namespace detail {

/// Per-run aggregator state: per-thread partials (cache-line padded) folded
/// deterministically at the superstep barrier. Empty for programs without
/// aggregator support — no storage, no per-superstep work.
template <typename Program, bool = HasAggregator<Program>>
struct AggregatorState {
  using T = typename Program::aggregate_type;
  struct alignas(64) Slot {
    T value = Program::aggregate_identity();
  };

  std::vector<Slot> partials;
  T previous = Program::aggregate_identity();

  void init(std::size_t threads) {
    partials.assign(threads, Slot{});
    previous = Program::aggregate_identity();
  }
  void begin_superstep() {
    for (Slot& s : partials) {
      s.value = Program::aggregate_identity();
    }
  }
  void end_superstep() {
    T acc = Program::aggregate_identity();
    for (const Slot& s : partials) {
      Program::aggregate(acc, s.value);
    }
    previous = acc;
  }
  void contribute(std::size_t tid, const T& x) {
    Program::aggregate(partials[tid].value, x);
  }
};

template <typename Program>
struct AggregatorState<Program, false> {
  void init(std::size_t) {}
  void begin_superstep() {}
  void end_superstep() {}
};

/// Topologies whose edge arrays are resident, so a vertex's out-edges can
/// be handed out as spans (graph::CsrGraph). Paged topologies only iterate.
template <typename T>
concept SpanTopology = requires(const T& g, std::size_t slot) {
  { g.out_neighbours(slot) } -> std::same_as<std::span<const graph::vid_t>>;
  { g.out_weights(slot) } -> std::same_as<std::span<const graph::weight_t>>;
};

}  // namespace detail

/// The iPregel execution engine: one fully-typed instantiation per
/// (program, combiner version, selection version) — the compile-time
/// multi-version design of the paper's section 3.1, with C++ template
/// parameters playing the role of the paper's compilation flags.
///
/// Template parameters:
///  - `Program`  — the user's vertex program (see program_traits.hpp)
///  - `Combiner` — which section-6 combiner version handles message
///                 delivery (mutex push / spinlock push / pull broadcast)
///  - `Bypass`   — whether the section-4 selection bypass replaces the
///                 scan-all selection phase
///  - `Topology` — where the edges come from: the resident graph::CsrGraph,
///                 or store::PagedGraph, whose edge pages stream through a
///                 budgeted cache. The superstep touches neighbours only
///                 through `for_each_out_target`/`for_each_in_neighbour`,
///                 which both provide in CSR order — so a paged run is this
///                 same code over a different topology, and pull results
///                 are bit-identical across the two by construction.
///
/// Addressing (section 5) needs no template parameter: the graph carries
/// its id->slot mapping (direct = offset 0; desolate = offset 0 with padded
/// slots), so a single subtraction covers all three modes by construction.
///
/// Direction optimisation needs no template parameter either: a push
/// engine with the selection bypass running a broadcast-only program on a
/// graph with in-edges sends each superstep by push or by pull, chosen at
/// the barrier before it from how many messages the last supersteps sent
/// (see next_direction). Both directions fill the same Mailboxes, and a
/// generation is read the way it was filled; EngineOptions::fixed_direction
/// pins the paper's always-push behaviour.
///
/// Invalid combinations are rejected at compile time: the pull combiner
/// requires a broadcast-only program, and the selection bypass requires a
/// program whose vertices all vote to halt every superstep (otherwise
/// "active" and "received a message" stop being equivalent — the paper's
/// note at the end of section 4).
///
/// The BSP superstep loop (Fig. 1): each superstep selects vertices, runs
/// `Program::compute` on them in parallel, delivers messages into the next
/// superstep's generation, and terminates once no vertex is active and no
/// message is in flight.
template <VertexProgram Program, CombinerKind Combiner, bool Bypass,
          typename Topology = graph::CsrGraph>
class Engine {
  static_assert(!Bypass || Program::always_halts,
                "selection bypass requires a program whose vertices vote to "
                "halt at the end of every superstep (paper section 4)");
  static_assert(Combiner != CombinerKind::kPull || Program::broadcast_only,
                "the pull combiner requires broadcast-only communication "
                "(paper section 6.2)");

 public:
  using Value = typename Program::value_type;
  using Msg = typename Program::message_type;

  static constexpr CombinerKind kCombiner = Combiner;
  static constexpr bool kBypass = Bypass;

  /// Per-vertex view handed to Program::compute — the paper's Fig. 3 API.
  /// `Shadow` is the integrity tier's sandboxed replay (shadow_verify):
  /// value writes land in a local copy and sends, broadcasts and aggregate
  /// contributions are swallowed, so compute() replays against exactly the
  /// inputs the live run consumed, with zero engine side effects.
  template <bool Shadow>
  class BasicContext {
   public:
    /// Retrieves the (single, combined) pending message. Mirrors the
    /// paper's `IP_get_next_message` while-loop protocol: the first call
    /// returns the combined message, subsequent calls return false.
    bool get_next_message(Msg& out) noexcept {
      if (msg_ == nullptr) {
        return false;
      }
      out = *msg_;
      msg_ = nullptr;
      return true;
    }

    /// Sends `msg` to every out-neighbour (`IP_broadcast`).
    void broadcast(const Msg& msg) {
      if constexpr (!Shadow) {
        engine_.do_broadcast(slot_, tid_, msg);
      }
    }

    /// Sends `msg` to an arbitrary vertex (`IP_send_message`). Only the
    /// push combiners support targeted sends.
    void send_message(graph::vid_t dst, const Msg& msg) {
      static_assert(Combiner != CombinerKind::kPull,
                    "the pull combiner supports broadcast-only "
                    "communication; use a push combiner for targeted sends");
      if constexpr (!Shadow) {
        engine_.do_send(dst, tid_, msg);
      }
    }

    /// `IP_vote_to_halt`: this vertex becomes inactive until it receives a
    /// message.
    void vote_to_halt() noexcept { voted_ = true; }

    /// Contributes to this superstep's global aggregate (programs with
    /// aggregator support only — see core/aggregator_traits.hpp).
    template <typename P = Program>
      requires HasAggregator<P>
    void aggregate(const typename P::aggregate_type& x) {
      if constexpr (!Shadow) {
        engine_.aggregator_.contribute(tid_, x);
      }
    }

    /// The fully-reduced aggregate of the PREVIOUS superstep (the BSP
    /// visibility rule; the identity during superstep 0).
    template <typename P = Program>
      requires HasAggregator<P>
    [[nodiscard]] const typename P::aggregate_type& aggregated()
        const noexcept {
      return engine_.aggregator_.previous;
    }

    /// `IP_get_superstep` (0-based).
    [[nodiscard]] std::size_t superstep() const noexcept {
      return engine_.superstep_;
    }
    /// `IP_is_first_superstep`.
    [[nodiscard]] bool is_first_superstep() const noexcept {
      return engine_.superstep_ == 0;
    }
    /// `IP_get_vertices_count`.
    [[nodiscard]] std::size_t num_vertices() const noexcept {
      return engine_.graph_.num_vertices();
    }

    /// This vertex's external identifier.
    [[nodiscard]] graph::vid_t id() const noexcept {
      return engine_.graph_.id_of(slot_);
    }
    /// Mutable reference to this vertex's value (the paper's `me->val`).
    [[nodiscard]] Value& value() noexcept { return value_; }
    [[nodiscard]] const Value& value() const noexcept { return value_; }

    [[nodiscard]] std::size_t out_degree() const noexcept {
      return engine_.graph_.out_degree(slot_);
    }
    /// Out-edge spans exist only for resident topologies.
    [[nodiscard]] std::span<const graph::vid_t> out_neighbours()
        const noexcept
      requires detail::SpanTopology<Topology>
    {
      return engine_.graph_.out_neighbours(slot_);
    }
    /// Out-edge weights; only valid when the graph was built with weights.
    [[nodiscard]] std::span<const graph::weight_t> out_weights()
        const noexcept
      requires detail::SpanTopology<Topology>
    {
      return engine_.graph_.out_weights(slot_);
    }

   private:
    friend class Engine;
    BasicContext(Engine& engine, std::size_t slot, std::size_t tid,
                 Value& value, const Msg* msg) noexcept
        : engine_(engine), slot_(slot), tid_(tid), value_(value), msg_(msg) {}

    Engine& engine_;
    std::size_t slot_;
    std::size_t tid_;
    Value& value_;
    const Msg* msg_;
    bool voted_ = false;
  };
  using Context = BasicContext<false>;

  /// Binds the engine to a graph. Allocates all per-vertex state up front
  /// (values, mailboxes, locks/outboxes, frontier) and registers it with
  /// the MemoryTracker. Throws std::invalid_argument when the pull
  /// combiner is selected but the graph has no in-neighbour lists, or
  /// when checkpointing is requested on a topology that has no CSR
  /// fingerprint to bind snapshots to.
  Engine(const Topology& graph, Program program = {},
         EngineOptions options = {}, runtime::ThreadPool* pool = nullptr)
      : graph_(graph),
        program_(std::move(program)),
        options_(options),
        external_pool_(pool) {
    if constexpr (Combiner == CombinerKind::kPull) {
      if (!graph.has_in_edges()) {
        throw std::invalid_argument(
            "the pull combiner gathers from in-neighbours: build the graph "
            "(or write the store) with in-edges");
      }
    }
    if (!kFingerprintable && options_.checkpoint.enabled()) {
      throw std::invalid_argument(kNoFingerprint);
    }
    if (external_pool_ == nullptr) {
      owned_pool_ =
          std::make_unique<runtime::ThreadPool>(options_.threads);
    }
    const std::size_t slots = graph_.num_slots();
    values_.resize(slots);
    halted_.assign(slots, 0);
    values_mem_.rebind(runtime::MemCategory::kVertexValues,
                       slots * sizeof(Value));
    internals_mem_.rebind(runtime::MemCategory::kVertexInternals,
                          slots * sizeof(std::uint8_t));
    mail_.emplace(slots);
    if constexpr (Bypass) {
      frontier_.emplace(slots, this->pool().size(),
                        /*with_dedup_bitmap=*/Combiner == CombinerKind::kPull);
    }
    if constexpr (kDirectional) {
      adaptive_ = !options_.fixed_direction && graph.has_in_edges();
      const auto edges = static_cast<double>(graph.num_edges());
      pull_above_ = edges * kPullAbove;
      push_below_ = edges * kPushBelow;
    }
    counters_.resize(this->pool().size());
    aggregator_.init(this->pool().size());
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the program to completion (or to the superstep cap) and
  /// returns timing/volume statistics. Reentrant: each call starts from
  /// freshly initialised vertex values.
  ///
  /// Failure domain: a compute()/resend() exception, watchdog trip, or
  /// memory-budget breach throws RunError with superstep/thread/vertex
  /// context (a FaultPlan trip still throws ft::InjectedFault). The
  /// exception never escapes a background thread — the pool captures it,
  /// cancels the team cooperatively, and rethrows on thread 0 once the
  /// team has quiesced. The failing superstep's state is torn (abandoned
  /// mid-flight, like a crash), but the engine object stays valid: a fresh
  /// run() fully reinitialises and run_from() restores a snapshot — the
  /// strong guarantee at superstep granularity.
  RunResult run() {
    reset_state();
    return superstep_loop();
  }

  /// run() with failures surfaced as data instead of exceptions: RunError
  /// and ft::InjectedFault become RunOutcome::error (configuration errors —
  /// snapshot mismatches, bypass violations — still throw).
  RunOutcome run_checked() {
    return to_outcome([&] { return run(); });
  }

  /// Resumes a crashed run from a snapshot: restores the captured state
  /// (validating it against this engine's graph and configuration — see
  /// restore_state) and re-enters the superstep loop at the snapshot's
  /// superstep. The returned RunResult covers only the resumed portion,
  /// except `supersteps`, which is the cumulative superstep count.
  RunResult run_from(const ft::EngineSnapshot& snapshot) {
    restore_state(snapshot);
    return superstep_loop();
  }

 private:
  RunResult superstep_loop() {
    RunResult result;
    if (graph_.num_slots() == 0) {
      return result;
    }
    if (options_.integrity.checksums &&
        !ft::kTriviallyCheckpointable<Program>) {
      throw std::invalid_argument(
          "integrity checksums digest vertex values and messages as raw "
          "bytes; this program's types are not trivially copyable");
    }
    if (options_.integrity.shadow && !kShadowComparable) {
      throw std::invalid_argument(
          "shadow recompute needs to compare replayed values: the value "
          "type must be equality-comparable or trivially copyable");
    }
    runtime::ThreadPool& workers = pool();
    runtime::Timer total;
    guard_trip_.store(0, std::memory_order_relaxed);
    run_deadline_armed_ = options_.guards.run_seconds > 0.0;
    step_deadline_armed_ = options_.guards.superstep_seconds > 0.0;
    if (run_deadline_armed_) {
      run_deadline_ = GuardClock::now() + guard_duration(options_.guards.run_seconds);
    }
    for (;;) {
      runtime::Timer step_timer;
      // The barrier is the quiescent point: budget and deadlines are
      // enforced here (the first iteration doubles as the run-start
      // check), then re-checked cooperatively inside the phases.
      enforce_memory_budget();
      if (step_deadline_armed_) {
        step_deadline_ = GuardClock::now() +
                         guard_duration(options_.guards.superstep_seconds);
      }
      const unsigned cur = static_cast<unsigned>(superstep_ & 1);
      cur_gen_ = cur;
      nxt_gen_ = cur ^ 1u;
      // Integrity hooks at the top of the superstep, in dependency order:
      // an at-rest flip lands first (simulating corruption during the
      // barrier gap), the checksum verification runs against it (the
      // detector must see what a real flip would leave behind), and the
      // shadow tier then records the pristine-or-detected inputs this
      // superstep is about to consume.
      apply_flip(integrity::FlipPhase::kAtRest);
      verify_checksums();
      shadow_capture();
      for (auto& c : counters_) {
        c = ThreadState{};
      }
      aggregator_.begin_superstep();
      fault_active_ = options_.fault.armed() &&
                      superstep_ == options_.fault.superstep;
      if (fault_active_) {
        fault_calls_.store(0, std::memory_order_relaxed);
        fault_tripped_.store(false, std::memory_order_relaxed);
      }

      // --- selection + local computation + communication -----------------
      if (superstep_ > 0 && frontier_selects()) {
        if constexpr (Bypass) {
          // The frontier *is* the selection: every entry received a
          // message, so threads run every vertex of their equal share.
          const auto& work = frontier_->current();
          for_indices(workers, work.size(),
                      [&](std::size_t tid, std::size_t i) {
                        process_vertex<kCombinerDirection>(work[i], tid, cur);
                      });
        }
      } else if (read_direction() == Direction::kPull) {
        scan_all<Direction::kPull>(workers, cur);
      } else {
        scan_all<Direction::kPush>(workers, cur);
      }

      // --- superstep epilogue --------------------------------------------
      if (fault_active_ && fault_tripped_.load(std::memory_order_relaxed)) {
        // The superstep was abandoned mid-flight: values partially
        // updated, messages half-delivered. This engine's state is torn,
        // exactly as a real crash would leave it — recovery means a fresh
        // engine restoring the last snapshot, never resuming this one.
        throw ft::InjectedFault(superstep_,
                                options_.fault.after_compute_calls);
      }
      // Thread 0's barrier-side watchdog check: catches deadlines (and a
      // raised cancel token) that the per-vertex ticks missed (e.g. a
      // near-empty frontier), then surfaces any trip as a typed error. The
      // tripped superstep was abandoned mid-flight — same torn state as a
      // crash.
      check_deadlines(workers);
      check_cancel_token(workers);
      throw_if_guard_tripped();
      // Post-compute integrity hooks: the flip lands on freshly produced
      // state, then the shadow tier replays its sampled vertices against
      // the recorded inputs. Both run before the aggregator folds (the
      // replay must observe the same previous-superstep aggregate the live
      // run did) and — crucially — before maybe_checkpoint, so corrupted
      // state is detected before it can be persisted.
      apply_flip(integrity::FlipPhase::kPostCompute);
      shadow_verify();
      std::size_t sent = 0;
      std::size_t active = 0;
      std::size_t executed = 0;
      for (const auto& c : counters_) {
        sent += c.sent;
        active += c.active;
        executed += c.executed;
      }
      aggregator_.end_superstep();
      if (read_direction() == Direction::kPull) {
        // Wipe the gathered generation's armed flags so halted vertices
        // cannot leak a stale broadcast two supersteps later.
        const std::size_t first = graph_.first_slot();
        workers.parallel_for(graph_.num_slots() - first,
                             [&](std::size_t, runtime::Range r) {
                               mail_->clear_range(cur, first + r.begin,
                                                  first + r.end);
                             });
      }
      if constexpr (Bypass) {
        if (active != 0) {
          throw std::logic_error(
              "selection bypass engaged but " + std::to_string(active) +
              " vertices did not vote to halt in superstep " +
              std::to_string(superstep_) +
              "; this program is not bypass-compatible");
        }
        frontier_->flip();
      }
      // Application-invariant audit (integrity tier 1): a parallel
      // reduction over the final barrier values, checked against the
      // program's declared conservation/monotonicity laws.
      audit_invariants();

      result.total_messages += sent;
      result.total_executed_vertices += executed;
      if (options_.collect_superstep_stats) {
        result.per_superstep.push_back(SuperstepStats{
            executed, active, sent, step_timer.seconds(), send_direction()});
      }
      if constexpr (kDirectional) {
        read_dir_ = send_dir_;
        send_dir_ = next_direction(sent);
        last_sent_ = sent;
      }
      ++superstep_;
      result.supersteps = superstep_;
      if (sent == 0 && active == 0) {
        break;  // BSP termination: everyone halted, nothing in flight
      }
      if (superstep_ >= options_.max_supersteps) {
        result.reached_superstep_cap = true;
        break;
      }
      // Checksum the barrier state the next superstep will consume
      // (integrity tier 2) BEFORE the checkpoint hook, so the digests
      // cover exactly the state a snapshot taken here would persist.
      store_checksums();
      // The barrier is the only point where engine state is quiescent and
      // consistent, so snapshots are taken here (a terminated run writes
      // none — there is nothing left to lose).
      maybe_checkpoint(result, step_timer.seconds());
    }
    result.seconds = total.seconds();
    return result;
  }

 public:
  /// Vertex values after run(); indexed by slot.
  [[nodiscard]] std::span<const Value> values() const noexcept {
    return values_;
  }
  /// Value of the vertex with external id `id`.
  [[nodiscard]] const Value& value_of(graph::vid_t id) const {
    return values_[graph_.slot_of(id)];
  }

  [[nodiscard]] const Topology& graph() const noexcept { return graph_; }
  [[nodiscard]] const Program& program() const noexcept { return program_; }

  /// Captures a snapshot of the engine's state. Only meaningful at a
  /// superstep barrier (which is where run() calls it; external callers
  /// must not invoke it while a superstep is in flight). The snapshot's
  /// `meta.superstep` is the superstep a resumed run executes first.
  ///
  /// Heavyweight captures values, halted flags, the pending combined
  /// mailbox generation, the bypass frontier, and aggregator state;
  /// lightweight captures values + halted flags only and therefore
  /// requires a ft::kLightweightCapable program (rejected here, at capture
  /// time, not at the far end of a recovery).
  [[nodiscard]] ft::EngineSnapshot capture_state(
      ft::CheckpointMode mode) const {
    if constexpr (!ft::kTriviallyCheckpointable<Program>) {
      (void)mode;
      throw std::logic_error(
          "checkpointing serialises vertex values and messages as raw "
          "bytes; this program's types are not trivially copyable");
    } else {
    if (mode == ft::CheckpointMode::kLightweight &&
        !ft::kLightweightCapable<Program>) {
      throw std::invalid_argument(
          "lightweight checkpointing needs a resend(ctx) hook to regenerate "
          "in-flight messages and cannot capture aggregator state; use "
          "heavyweight mode");
    }
    const std::size_t slots = graph_.num_slots();
    ft::EngineSnapshot snap;
    snap.meta = ft::bound_meta(binding(), mode, superstep_);
    ft::SnapshotMeta& m = snap.meta;
    snap.values.resize(slots * sizeof(Value));
    std::memcpy(snap.values.data(), values_.data(), snap.values.size());
    snap.halted = halted_;
    if (mode == ft::CheckpointMode::kHeavyweight) {
      // Generation (superstep_ & 1) holds the messages the next superstep
      // reads — for push combiners the combined inboxes, for pull the
      // armed outboxes; both expose the same raw view.
      const unsigned gen = static_cast<unsigned>(superstep_ & 1);
      if (kDirectional && read_direction() == Direction::kPull) {
        capture_gathered(gen, snap);
      } else {
        const auto messages = mail_->messages(gen);
        const auto flags = mail_->flags(gen);
        snap.inbox.resize(slots * sizeof(Msg));
        std::memcpy(snap.inbox.data(), messages.data(), snap.inbox.size());
        snap.inbox_flags.assign(flags.begin(), flags.end());
        if constexpr (Bypass) {
          const auto& work = frontier_->current();
          snap.frontier.assign(work.begin(), work.end());
        }
      }
      if constexpr (HasAggregator<Program>) {
        using Agg = typename Program::aggregate_type;
        static_assert(std::is_trivially_copyable_v<Agg>,
                      "aggregator checkpointing requires a trivially "
                      "copyable aggregate type");
        m.aggregate_size = sizeof(Agg);
        snap.aggregate.resize(sizeof(Agg));
        std::memcpy(snap.aggregate.data(), &aggregator_.previous,
                    sizeof(Agg));
      }
    }
    return snap;
    }
  }

  /// Restores engine state from a snapshot, validating it first against
  /// this engine's binding (ft::binding_mismatch: graph and program
  /// fingerprints, shape, value/message sizes, and — for heavyweight
  /// snapshots — the same mailbox layout family and bypass setting).
  /// Rejects with ft::SnapshotMismatch before touching any engine state,
  /// so a bad snapshot never leaves the engine half-restored.
  ///
  /// Lightweight snapshots carry no mailbox state and therefore restore
  /// under ANY version of the program — a crashed spinlock-push run can
  /// resume under pull — at the cost of one message-regeneration pass via
  /// Program::resend.
  void restore_state(const ft::EngineSnapshot& snap) {
    if constexpr (!ft::kTriviallyCheckpointable<Program>) {
      (void)snap;
      throw std::logic_error(
          "checkpoint recovery deserialises raw bytes; this program's "
          "types are not trivially copyable");
    } else {
    const ft::SnapshotMeta& m = snap.meta;
    if (const char* why = ft::binding_mismatch(m, binding())) {
      throw ft::SnapshotMismatch(std::string("snapshot rejected: ") + why);
    }
    superstep_ = m.superstep;
    std::memcpy(values_.data(), snap.values.data(), snap.values.size());
    halted_.assign(snap.halted.begin(), snap.halted.end());
    mail_->reset();
    if constexpr (Bypass) {
      frontier_->reset();
    }
    // A restored generation is always in push layout (capture_gathered),
    // and the resumed superstep sends like a first one: by push.
    reset_directions();
    aggregator_.init(pool().size());
    reset_checkpoint_pacing();
    const unsigned gen = static_cast<unsigned>(superstep_ & 1);
    if (m.mode == ft::CheckpointMode::kHeavyweight) {
      mail_->restore(
          gen,
          std::span<const Msg>(
              reinterpret_cast<const Msg*>(snap.inbox.data()),
              snap.inbox.size() / sizeof(Msg)),
          std::span<const std::uint8_t>(snap.inbox_flags));
      if constexpr (Bypass) {
        std::vector<std::size_t> work(snap.frontier.begin(),
                                      snap.frontier.end());
        frontier_->restore(std::move(work));
      }
      if constexpr (HasAggregator<Program>) {
        std::memcpy(&aggregator_.previous, snap.aggregate.data(),
                    snap.aggregate.size());
      }
    } else {
      if constexpr (ft::kResendCapable<Program>) {
        regenerate_messages();
      }
    }
    // Re-baseline the integrity detectors against the restored (and, for
    // lightweight snapshots, regenerated) state, so the resumed superstep
    // is audited exactly as it would have been in an uninterrupted run.
    integrity_after_restore();
    }
  }

 private:
  using LockType = std::conditional_t<
      Combiner == CombinerKind::kMutexPush, std::mutex,
      std::conditional_t<Combiner == CombinerKind::kPull, NoLock,
                         runtime::SpinLock>>;
  using MailStore = Mailboxes<Msg, LockType>;

  /// Engines that pick each superstep's send direction at the barrier (see
  /// next_direction): push combiners with the selection bypass, running a
  /// broadcast-only program. Every other engine sends in its combiner's
  /// one direction, a compile-time constant.
  static constexpr bool kDirectional =
      Bypass && Combiner != CombinerKind::kPull && Program::broadcast_only;
  static constexpr Direction kCombinerDirection =
      Combiner == CombinerKind::kPull ? Direction::kPull : Direction::kPush;
  /// Direction-switch thresholds, as fractions of |E| messages a superstep
  /// is expected to send. Pull above kPullAbove, back to push below
  /// kPushBelow; the gap is the hysteresis. Calibrated by
  /// bench/ablation_selection's BM_SendReadCycle sweep.
  static constexpr double kPullAbove = 0.20;
  static constexpr double kPushBelow = 0.15;

  using Cursor = typename Topology::Cursor;
  /// One per pool thread: the superstep's counters, and the cursor the
  /// thread walks edges through (a paged graph's pinned page).
  struct alignas(64) ThreadState {
    std::size_t sent = 0;
    std::size_t active = 0;
    std::size_t executed = 0;
    [[no_unique_address]] Cursor cursor;
  };

  /// Releases a thread's cursor on every exit from its vertex range, an
  /// exception (a kPageError mid-range) included.
  struct CursorRelease {
    explicit CursorRelease(Cursor& c) : cursor(c) {}
    CursorRelease(const CursorRelease&) = delete;
    ~CursorRelease() { cursor = Cursor{}; }
    Cursor& cursor;
  };

  /// The shadow-recompute tier compares a replayed value against the
  /// stored one: via operator== when the type provides it (padded structs
  /// must not be memcmp'd), via memcmp otherwise.
  static constexpr bool kShadowComparable =
      std::equality_comparable<Value> || std::is_trivially_copyable_v<Value>;
  /// Snapshots bind to ft::graph_fingerprint, which is defined over a
  /// resident CSR; other topologies reject checkpointing up front.
  static constexpr bool kFingerprintable =
      requires(const Topology& g) { ft::graph_fingerprint(g); };
  static constexpr const char* kNoFingerprint =
      "checkpoint snapshots bind to a CSR graph fingerprint; this topology "
      "has none, so it cannot be checkpointed or restored";

  [[nodiscard]] runtime::ThreadPool& pool() noexcept {
    return external_pool_ != nullptr ? *external_pool_ : *owned_pool_;
  }

  [[nodiscard]] runtime::ThreadPool& pool() const noexcept {
    return external_pool_ != nullptr ? *external_pool_ : *owned_pool_;
  }

  /// Cached ft::graph_fingerprint of the bound graph (O(E) on first use).
  [[nodiscard]] std::uint64_t fingerprint() const {
    if constexpr (kFingerprintable) {
      if (fingerprint_ == 0) {
        fingerprint_ = ft::graph_fingerprint(graph_);
      }
      return fingerprint_;
    } else {
      throw std::invalid_argument(kNoFingerprint);
    }
  }

  /// This engine's snapshot identity (see ft::SnapshotBinding).
  [[nodiscard]] ft::SnapshotBinding binding() const {
    return {.meta = {.combiner = static_cast<std::uint8_t>(Combiner),
                     .selection_bypass = Bypass,
                     .has_aggregator = HasAggregator<Program>,
                     .num_slots = graph_.num_slots(),
                     .first_slot = graph_.first_slot(),
                     .num_vertices = graph_.num_vertices(),
                     .num_edges = graph_.num_edges(),
                     .graph_fingerprint = fingerprint(),
                     .program_fingerprint = program_fingerprint<Program>(),
                     .value_size = sizeof(Value),
                     .message_size = sizeof(Msg)},
            .lightweight_capable = ft::kLightweightCapable<Program>};
  }

  void reset_checkpoint_pacing() noexcept {
    since_checkpoint_seconds_ = 0.0;
    checkpoint_cost_seconds_ = 0.0;
  }

  /// Superstep-barrier checkpoint hook. kEveryK snapshots on multiples of
  /// `every`; kAdaptive follows Young's rule with measured costs: snapshot
  /// once early to learn the cost C, then every time accumulated superstep
  /// time since the last snapshot reaches C / overhead_budget, which keeps
  /// the checkpointing tax near the configured fraction regardless of how
  /// expensive supersteps are.
  void maybe_checkpoint(RunResult& result, double step_seconds) {
    const ft::CheckpointPolicy& cp = options_.checkpoint;
    if (!cp.enabled()) {
      return;
    }
    bool due = false;
    if (cp.trigger == ft::CheckpointTrigger::kEveryK) {
      due = cp.every != 0 && superstep_ % cp.every == 0;
    } else {
      since_checkpoint_seconds_ += step_seconds;
      if (checkpoint_cost_seconds_ == 0.0) {
        due = true;  // first snapshot measures the cost
      } else {
        const double budget =
            cp.overhead_budget > 0.0 ? cp.overhead_budget : 0.05;
        due = since_checkpoint_seconds_ >=
              checkpoint_cost_seconds_ / budget;
      }
    }
    if (!due) {
      return;
    }
    runtime::Timer cp_timer;
    try {
      {
        const ft::EngineSnapshot snap = capture_state(cp.mode);
        checkpoint_mem_.rebind(runtime::MemCategory::kCheckpoint,
                               snap.payload_bytes());
        if (!checkpoint_dir_.has_value()) {
          checkpoint_dir_.emplace(cp.directory, cp.basename, cp.vfs, cp.keep);
        }
        checkpoint_dir_->publish(snap);
      }
      checkpoint_mem_.rebind(runtime::MemCategory::kCheckpoint, 0);
    } catch (const io::PowerLoss&) {
      // Simulation only: the machine this models is dead; the run is too.
      checkpoint_mem_.rebind(runtime::MemCategory::kCheckpoint, 0);
      throw;
    } catch (const io::IoError& e) {
      // A full or flaky disk costs one checkpoint, not the run: the
      // previous snapshot is still intact (publish is atomic), so skip,
      // warn, and retry at the next trigger. Pacing state is left alone —
      // a skipped snapshot paid no cost worth amortising.
      checkpoint_mem_.rebind(runtime::MemCategory::kCheckpoint, 0);
      ++result.checkpoints_skipped;
      std::fprintf(stderr,
                   "ipregel: checkpoint at superstep %zu skipped: %s\n",
                   superstep_, e.what());
      return;
    }
    checkpoint_cost_seconds_ = cp_timer.seconds();
    since_checkpoint_seconds_ = 0.0;
    ++result.checkpoints_written;
    result.checkpoint_seconds += checkpoint_cost_seconds_;
  }

  /// Lightweight recovery: re-runs the *sending side* of the superstep
  /// preceding the snapshot from the restored vertex values, via
  /// Program::resend. Deliveries land in the generation the resumed
  /// superstep consumes, and the bypass frontier is rebuilt through the
  /// normal claim paths — after this, the engine is indistinguishable
  /// from one whose messages survived (up to resend sending a superset of
  /// the original messages, which resend contracts must make harmless).
  void regenerate_messages() {
    if (superstep_ == 0) {
      return;  // superstep 0 consumes no messages
    }
    const std::size_t resume = superstep_;
    superstep_ = resume - 1;  // resend contexts observe the sender's superstep
    nxt_gen_ = static_cast<unsigned>(resume & 1);
    cur_gen_ = nxt_gen_ ^ 1u;
    for (auto& c : counters_) {
      c = ThreadState{};
    }
    const std::size_t first = graph_.first_slot();
    for_indices(pool(), graph_.num_slots() - first,
                [&](std::size_t tid, std::size_t i) {
                  Context ctx(*this, first + i, tid, values_[first + i],
                              nullptr);
                  try {
                    program_.resend(ctx);
                  } catch (...) {
                    throw_vertex_failure(tid, first + i, "resend()");
                  }
                });
    if constexpr (Bypass) {
      frontier_->flip();
    }
    superstep_ = resume;
  }

  // --- failure-domain guards ------------------------------------------
  using GuardClock = std::chrono::steady_clock;

  [[nodiscard]] static GuardClock::duration guard_duration(
      double seconds) noexcept {
    return std::chrono::duration_cast<GuardClock::duration>(
        std::chrono::duration<double>(seconds));
  }

  /// Records the first watchdog trip and cancels the team. Callable from
  /// any team thread; first trip wins.
  void trip_guard(runtime::ThreadPool& workers,
                  std::uint8_t which) noexcept {
    std::uint8_t expected = 0;
    guard_trip_.compare_exchange_strong(expected, which,
                                        std::memory_order_relaxed);
    workers.request_cancel();
  }

  /// Compares the wall clock against the armed superstep/run deadlines.
  /// Called from every team thread at vertex-boundary ticks and from
  /// thread 0 at the barrier, so a straggling member trips its own
  /// deadline even while thread 0 waits for it.
  void check_deadlines(runtime::ThreadPool& workers) noexcept {
    if (!step_deadline_armed_ && !run_deadline_armed_) {
      return;
    }
    const GuardClock::time_point now = GuardClock::now();
    if (step_deadline_armed_ && now >= step_deadline_) {
      trip_guard(workers, kTripSuperstep);
    } else if (run_deadline_armed_ && now >= run_deadline_) {
      trip_guard(workers, kTripRun);
    }
  }

  /// Observes the caller's cooperative cancel token (guards.cancel_token).
  /// Same cadence as the deadlines: every team thread at vertex-boundary
  /// ticks, thread 0 at the barrier.
  void check_cancel_token(runtime::ThreadPool& workers) noexcept {
    const std::atomic<bool>* token = options_.guards.cancel_token;
    if (token != nullptr && token->load(std::memory_order_relaxed)) {
      trip_guard(workers, kTripCancelled);
    }
  }

  /// Cooperative cancellation poll for parallel-region bodies: true means
  /// "unwind now" (a teammate failed, a watchdog tripped, an external
  /// request_cancel arrived, or the caller raised the cancel token).
  [[nodiscard]] bool guard_tick(runtime::ThreadPool& workers) noexcept {
    if (workers.cancel_requested()) {
      return true;
    }
    check_deadlines(workers);
    check_cancel_token(workers);
    return workers.cancel_requested();
  }

  /// Translates a recorded watchdog trip into its typed error (thread 0,
  /// at the barrier, once the team has quiesced).
  void throw_if_guard_tripped() {
    const std::uint8_t trip = guard_trip_.load(std::memory_order_relaxed);
    if (trip == 0) {
      return;
    }
    if (trip == kTripSuperstep) {
      throw RunError(RunErrorKind::kSuperstepTimeout, superstep_, 0,
                     RunError::kNoVertex,
                     "superstep exceeded the watchdog limit of " +
                         std::to_string(options_.guards.superstep_seconds) +
                         " s");
    }
    if (trip == kTripCancelled) {
      throw RunError(RunErrorKind::kCancelled, superstep_, 0,
                     RunError::kNoVertex,
                     "run cancelled via guards.cancel_token");
    }
    throw RunError(RunErrorKind::kRunTimeout, superstep_, 0,
                   RunError::kNoVertex,
                   "run exceeded the watchdog limit of " +
                       std::to_string(options_.guards.run_seconds) + " s");
  }

  /// Enforces guards.memory_budget_bytes — the shared-memory mirror of the
  /// Pregel+ cluster's out_of_memory marker, raised at the barrier instead
  /// of mid-flight. When the calling thread has an active MemoryScope the
  /// budget covers *this job's* attributed bytes only, so concurrent jobs
  /// cannot trip each other; otherwise the process-wide total is used.
  void enforce_memory_budget() {
    const std::size_t budget = options_.guards.memory_budget_bytes;
    if (budget == 0) {
      return;
    }
    const runtime::MemoryScope* scope = runtime::current_memory_scope();
    const std::size_t used = scope != nullptr
                                 ? scope->total()
                                 : runtime::MemoryTracker::instance().total();
    if (used > budget) {
      throw RunError(RunErrorKind::kMemoryBudget, superstep_, 0,
                     RunError::kNoVertex,
                     std::string("tracked framework memory (") +
                         (scope != nullptr ? "job scope, " : "process, ") +
                         std::to_string(used) +
                         " bytes) exceeds the configured budget (" +
                         std::to_string(budget) + " bytes)");
    }
  }

  // --- integrity: silent-data-corruption detectors ---------------------
  //
  // Three independent tiers (options_.integrity), all evaluated at the
  // superstep barrier where state is quiescent:
  //   1. audit_invariants  — application-declared conservation laws
  //   2. store/verify_checksums — sectioned digests of the barrier state
  //   3. shadow_capture/verify  — sampled replay of compute()
  // plus apply_flip (options_.flip), the deterministic single-bit
  // corruption injector the detectors are tested against.

  struct ShadowSample {
    std::size_t slot = 0;
    Value before{};
    Msg msg{};
    bool has_msg = false;
    bool was_halted = false;
  };

  [[nodiscard]] static bool value_equal(const Value& a, const Value& b) {
    if constexpr (std::equality_comparable<Value>) {
      return a == b;
    } else {
      return std::memcmp(&a, &b, sizeof(Value)) == 0;
    }
  }

  /// Applies the armed FlipPlan when its (superstep, phase) matches —
  /// deterministic single-bit corruption at a barrier point, the SDC
  /// analogue of ft::FaultPlan's crash injection. kAtRest flips hit the
  /// generation this superstep consumes; kPostCompute flips hit freshly
  /// produced state (the generation the NEXT superstep consumes).
  /// Frontier flips are only meaningful at kAtRest (the epilogue's
  /// current list is already consumed).
  void apply_flip(integrity::FlipPhase phase) {
    const integrity::FlipPlan& plan = options_.flip;
    if (!plan.armed() || plan.superstep != superstep_ ||
        plan.phase != phase) {
      return;
    }
    const std::size_t first = graph_.first_slot();
    const std::size_t n = graph_.num_slots() - first;
    if (n == 0) {
      return;
    }
    const auto flip_byte = [&](std::uint8_t* base, std::size_t object_bytes,
                               std::size_t object_index, std::uint32_t bit) {
      const std::uint32_t b =
          bit % static_cast<std::uint32_t>(object_bytes * 8);
      std::uint8_t* byte = base + object_index * object_bytes + b / 8;
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (b % 8));
      switch (plan.op) {
        case integrity::FlipOp::kXor:
          *byte ^= mask;
          break;
        case integrity::FlipOp::kSet:
          *byte |= mask;
          break;
        case integrity::FlipOp::kClear:
          *byte &= static_cast<std::uint8_t>(~mask);
          break;
      }
    };
    const std::size_t slot = first + plan.index % n;
    const unsigned gen = static_cast<unsigned>(
        (phase == integrity::FlipPhase::kAtRest ? superstep_
                                                : superstep_ + 1) &
        1);
    switch (plan.target) {
      case integrity::FlipTarget::kValues:
        if constexpr (std::is_trivially_copyable_v<Value>) {
          flip_byte(reinterpret_cast<std::uint8_t*>(values_.data()),
                    sizeof(Value), slot, plan.bit);
        }
        break;
      case integrity::FlipTarget::kHalted:
        flip_byte(halted_.data(), 1, slot, plan.bit);
        break;
      case integrity::FlipTarget::kMessages:
        if constexpr (std::is_trivially_copyable_v<Msg>) {
          flip_byte(reinterpret_cast<std::uint8_t*>(
                        mail_->corrupt_messages(gen).data()),
                    sizeof(Msg), slot, plan.bit);
        }
        break;
      case integrity::FlipTarget::kMessageFlags:
        flip_byte(mail_->corrupt_flags(gen).data(), 1, slot, plan.bit);
        break;
      case integrity::FlipTarget::kFrontier:
        if constexpr (Bypass) {
          std::vector<std::size_t>& work = frontier_->corrupt_current();
          if (!work.empty()) {
            flip_byte(reinterpret_cast<std::uint8_t*>(work.data()),
                      sizeof(std::size_t), plan.index % work.size(),
                      plan.bit);
          }
        }
        break;
    }
  }

  /// Digests the barrier state into `out`: values, halted flags, the
  /// message generation superstep_ consumes, and the bypass frontier —
  /// one digest per kSectionSlots-slot partition, computed in parallel.
  /// Message digests fold the flag byte always but the message bytes only
  /// when the flag is set: a flip in a dead mailbox slot is masked by
  /// construction (the engine never reads those bytes).
  void collect_checksums(integrity::SectionChecksums& out) {
    if constexpr (ft::kTriviallyCheckpointable<Program>) {
      const std::size_t first = graph_.first_slot();
      const std::size_t n = graph_.num_slots() - first;
      const std::size_t parts = integrity::section_count(n);
      out.values.assign(parts, 0);
      out.halted.assign(parts, 0);
      out.messages.assign(parts, 0);
      const unsigned gen = static_cast<unsigned>(superstep_ & 1);
      const auto msgs = static_cast<const MailStore&>(*mail_).messages(gen);
      const auto flags = static_cast<const MailStore&>(*mail_).flags(gen);
      pool().parallel_for(parts, [&](std::size_t, runtime::Range r) {
        for (std::size_t p = r.begin; p < r.end; ++p) {
          const std::size_t begin = first + p * integrity::kSectionSlots;
          const std::size_t end =
              std::min(begin + integrity::kSectionSlots, first + n);
          out.values[p] = integrity::hash_bytes(
              values_.data() + begin, (end - begin) * sizeof(Value));
          out.halted[p] =
              integrity::hash_bytes(halted_.data() + begin, end - begin);
          // Flag bytes in bulk, then live payloads over four rotating
          // lanes: the flag digest pins WHICH slots were live, the lanes
          // pin the live payload bytes, and neither is a serial per-slot
          // mix chain (which made this section the tier's bottleneck).
          // Dead-slot payload bytes are still never read, preserving the
          // masked-by-construction contract the detector tests pin.
          std::uint64_t h =
              integrity::hash_bytes(flags.data() + begin, end - begin);
          if (std::memchr(flags.data() + begin, 0, end - begin) == nullptr) {
            // Every slot live (PageRank-style full generations): one bulk
            // pass over the contiguous payload range — no masking to
            // honour, so no per-slot gating needed.
            h = integrity::hash_bytes(&msgs[begin],
                                      (end - begin) * sizeof(Msg), h);
          } else {
            std::uint64_t lane[4] = {
                runtime::mix64(h ^ 0x243f6a8885a308d3ULL),
                runtime::mix64(h ^ 0x13198a2e03707344ULL),
                runtime::mix64(h ^ 0xa4093822299f31d0ULL),
                runtime::mix64(h ^ 0x082efa98ec4e6c89ULL)};
            for (std::size_t s = begin; s < end; ++s) {
              if (flags[s] != 0) {
                lane[s & 3] = integrity::hash_bytes(&msgs[s], sizeof(Msg),
                                                    lane[s & 3]);
              }
            }
            h = runtime::mix64(h ^ lane[0]);
            h = runtime::mix64(h ^ lane[1]);
            h = runtime::mix64(h ^ lane[2]);
            h = runtime::mix64(h ^ lane[3]);
          }
          out.messages[p] = h;
        }
      });
      out.frontier.clear();
      out.frontier_size = 0;
      if constexpr (Bypass) {
        const std::vector<std::size_t>& work = frontier_->current();
        out.frontier_size = work.size();
        const std::size_t fparts = integrity::section_count(work.size());
        out.frontier.assign(fparts, 0);
        pool().parallel_for(fparts, [&](std::size_t, runtime::Range r) {
          for (std::size_t p = r.begin; p < r.end; ++p) {
            const std::size_t b = p * integrity::kSectionSlots;
            const std::size_t e =
                std::min(b + integrity::kSectionSlots, work.size());
            out.frontier[p] = integrity::hash_bytes(
                work.data() + b, (e - b) * sizeof(std::size_t));
          }
        });
      }
    } else {
      (void)out;  // unreachable: gated at run start
    }
  }

  /// Arms the tier-2 digests for the superstep about to run (called after
  /// ++superstep_, respecting the checksum_every cadence).
  void store_checksums() {
    const integrity::IntegrityOptions& iopt = options_.integrity;
    if (!iopt.checksums) {
      return;
    }
    const std::size_t every = iopt.checksum_every == 0 ? 1 : iopt.checksum_every;
    if (superstep_ % every != 0) {
      return;
    }
    collect_checksums(checks_);
    checks_.superstep = superstep_;
    checks_.armed = true;
  }

  /// Verifies the armed tier-2 digests at the top of their superstep:
  /// recompute and compare section by section, localising any mismatch to
  /// a state section and a slot range. One-shot — re-armed at the next
  /// store cadence.
  void verify_checksums() {
    if (!options_.integrity.checksums || !checks_.armed ||
        checks_.superstep != superstep_) {
      return;
    }
    checks_.armed = false;
    integrity::SectionChecksums now;
    collect_checksums(now);
    const std::size_t first = graph_.first_slot();
    const auto fail = [&](integrity::Section sec, std::size_t part,
                          std::size_t base) {
      const std::size_t lo = base + part * integrity::kSectionSlots;
      const std::size_t hi = lo + integrity::kSectionSlots;
      throw RunError(
          RunErrorKind::kIntegrityViolation, superstep_, 0,
          RunError::kNoVertex,
          "sectioned checksum mismatch: section '" +
              std::string(integrity::to_string(sec)) + "', slots [" +
              std::to_string(lo) + ", " + std::to_string(hi) +
              ") changed at rest since the barrier before superstep " +
              std::to_string(superstep_) +
              " — memory corrupted outside the engine's write paths");
    };
    for (std::size_t p = 0; p < checks_.values.size(); ++p) {
      if (now.values[p] != checks_.values[p]) {
        fail(integrity::Section::kValues, p, first);
      }
    }
    for (std::size_t p = 0; p < checks_.halted.size(); ++p) {
      if (now.halted[p] != checks_.halted[p]) {
        fail(integrity::Section::kHalted, p, first);
      }
    }
    for (std::size_t p = 0; p < checks_.messages.size(); ++p) {
      if (now.messages[p] != checks_.messages[p]) {
        fail(integrity::Section::kMessages, p, first);
      }
    }
    if constexpr (Bypass) {
      if (now.frontier_size != checks_.frontier_size) {
        throw RunError(RunErrorKind::kIntegrityViolation, superstep_, 0,
                       RunError::kNoVertex,
                       "sectioned checksum mismatch: frontier size changed "
                       "at rest (" +
                           std::to_string(checks_.frontier_size) + " -> " +
                           std::to_string(now.frontier_size) +
                           ") before superstep " +
                           std::to_string(superstep_));
      }
      for (std::size_t p = 0; p < checks_.frontier.size(); ++p) {
        if (now.frontier[p] != checks_.frontier[p]) {
          fail(integrity::Section::kFrontier, p, 0);
        }
      }
    }
  }

  /// Records the tier-3 sample at the top of the superstep: which slots a
  /// seeded draw selected, their pre-compute values/halted state, and the
  /// combined message each is about to consume.
  void shadow_capture() {
    shadow_captured_ = false;
    if (!options_.integrity.shadow) {
      return;
    }
    if constexpr (kShadowComparable) {
      // The barrier-side gather walks thread 0's cursor: released on return.
      const CursorRelease release{counters_[0].cursor};
      const std::size_t first = graph_.first_slot();
      const std::size_t n = graph_.num_slots() - first;
      const std::vector<std::size_t> slots = integrity::shadow_sample(
          options_.integrity.shadow_seed, superstep_, first, n,
          options_.integrity.shadow_samples);
      shadow_.clear();
      shadow_.reserve(slots.size());
      for (const std::size_t slot : slots) {
        ShadowSample s;
        s.slot = slot;
        s.before = values_[slot];
        s.was_halted = halted_[slot] != 0;
        if (read_direction() == Direction::kPull) {
          if (superstep_ > 0) {
            try {
              s.has_msg = gather(cur_gen_, slot, counters_[0].cursor, s.msg);
            } catch (...) {
              throw_vertex_failure(0, slot, "the shadow gather");
            }
          }
        } else {
          if (mail_->has_message(cur_gen_, slot)) {
            s.has_msg = true;
            s.msg = mail_->messages(cur_gen_)[slot];
          }
        }
        shadow_.push_back(s);
      }
      shadow_captured_ = true;
    }
  }

  /// Replays compute() for every sampled slot in the epilogue and compares
  /// the replayed (value, voted) against what the live superstep stored —
  /// catching corruption of the compute path itself, not just state at
  /// rest. Mirrors the live selection exactly: a sampled slot that was
  /// skipped (halted, no message) must be byte-for-byte untouched.
  void shadow_verify() {
    if (!shadow_captured_) {
      return;
    }
    if constexpr (kShadowComparable) {
      for (const ShadowSample& s : shadow_) {
        bool executed = true;
        if (superstep_ > 0) {
          executed = frontier_selects() ? s.has_msg
                                        : s.has_msg || !s.was_halted;
        }
        Value expect = s.before;
        bool voted = s.was_halted;
        if (executed) {
          Msg m = s.msg;
          BasicContext<true> ctx(*this, s.slot, 0, expect,
                                 s.has_msg ? &m : nullptr);
          try {
            program_.compute(ctx);
          } catch (...) {
            throw RunError(
                RunErrorKind::kIntegrityViolation, superstep_, 0,
                graph_.id_of(s.slot),
                "shadow recompute: compute() threw on replay with "
                "identical inputs (nondeterministic program or corrupted "
                "inputs)");
          }
          voted = ctx.voted_;
        }
        const bool halted_now = halted_[s.slot] != 0;
        if (!value_equal(expect, values_[s.slot]) || voted != halted_now) {
          throw RunError(
              RunErrorKind::kIntegrityViolation, superstep_, 0,
              graph_.id_of(s.slot),
              "shadow recompute mismatch at slot " + std::to_string(s.slot) +
                  ": the stored result of compute() does not match a "
                  "replay against the same inbox — state corrupted during "
                  "superstep " + std::to_string(superstep_));
        }
      }
    }
  }

  /// Tier-1 barrier audit: accumulate the program's audit reduction over
  /// all vertex values (per kSectionSlots partition, in parallel), check
  /// each value against the program's per-vertex validity predicate, then
  /// check the reduced accumulators against the previous barrier's.
  void audit_invariants() {
    if (!options_.integrity.invariants) {
      return;
    }
    if constexpr (!HasInvariantAudit<Program> && !HasValueAudit<Program>) {
      return;  // the program declares no auditors; the tier is a no-op
    } else {
      const std::size_t first = graph_.first_slot();
      const std::size_t n = graph_.num_slots() - first;
      const std::size_t parts = integrity::section_count(n);
      struct Failure {
        std::size_t slot = 0;
        const char* why = nullptr;
      };
      std::vector<Failure> failures(parts);
      if constexpr (HasInvariantAudit<Program>) {
        audit_.cur.assign(parts, program_.audit_identity());
      }
      pool().parallel_for(parts, [&](std::size_t, runtime::Range r) {
        for (std::size_t p = r.begin; p < r.end; ++p) {
          const std::size_t begin = first + p * integrity::kSectionSlots;
          const std::size_t end =
              std::min(begin + integrity::kSectionSlots, first + n);
          for (std::size_t slot = begin; slot < end; ++slot) {
            if constexpr (HasInvariantAudit<Program>) {
              program_.audit_accumulate(audit_.cur[p], values_[slot]);
            }
            if constexpr (HasValueAudit<Program>) {
              if (failures[p].why == nullptr) {
                const char* why = program_.audit_value(
                    graph_.id_of(slot), values_[slot],
                    graph_.num_vertices());
                if (why != nullptr) {
                  failures[p] = Failure{slot, why};
                }
              }
            }
          }
        }
      });
      if constexpr (HasValueAudit<Program>) {
        for (const Failure& f : failures) {
          if (f.why != nullptr) {
            throw RunError(
                RunErrorKind::kIntegrityViolation, superstep_, 0,
                graph_.id_of(f.slot),
                std::string("invariant audit: ") + f.why +
                    " (per-vertex value audit, slot " +
                    std::to_string(f.slot) + ", superstep " +
                    std::to_string(superstep_) + ")");
          }
        }
      }
      if constexpr (HasInvariantAudit<Program>) {
        using Acc = typename Program::audit_type;
        const auto check = [&](const Acc* prev, const Acc& cur,
                               std::size_t part, bool global) {
          const char* why = program_.audit_check(prev, cur, superstep_);
          if (why != nullptr) {
            const std::string where =
                global ? std::string("all slots")
                       : "slots [" +
                             std::to_string(first +
                                            part * integrity::kSectionSlots) +
                             ", " +
                             std::to_string(first +
                                            (part + 1) *
                                                integrity::kSectionSlots) +
                             ")";
            throw RunError(RunErrorKind::kIntegrityViolation, superstep_, 0,
                           RunError::kNoVertex,
                           std::string("invariant audit: ") + why +
                               " (reduction audit, " + where +
                               ", superstep " + std::to_string(superstep_) +
                               ")");
          }
        };
        if constexpr (Program::audit_per_partition) {
          for (std::size_t p = 0; p < parts; ++p) {
            check(audit_.has_prev ? &audit_.prev[p] : nullptr,
                  audit_.cur[p], p, false);
          }
        } else {
          Acc merged = program_.audit_identity();
          for (const Acc& a : audit_.cur) {
            Program::audit_merge(merged, a);
          }
          Acc prev_merged = program_.audit_identity();
          if (audit_.has_prev) {
            for (const Acc& a : audit_.prev) {
              Program::audit_merge(prev_merged, a);
            }
          }
          check(audit_.has_prev ? &prev_merged : nullptr, merged, 0, true);
        }
        audit_.prev.swap(audit_.cur);
        audit_.has_prev = true;
      }
    }
  }

  /// Clears all detector state (fresh run).
  void integrity_reset() {
    checks_.disarm();
    audit_.reset();
    shadow_.clear();
    shadow_captured_ = false;
  }

  /// Re-baselines the detectors after a snapshot restore: the reduction
  /// audit's previous-barrier accumulators are rebuilt from the restored
  /// values (so the first audited barrier compares against exactly what an
  /// uninterrupted run would have), and the tier-2 digests are re-armed
  /// over the restored state (so at-rest corruption between restore and
  /// the resumed superstep is still caught).
  void integrity_after_restore() {
    integrity_reset();
    if constexpr (HasInvariantAudit<Program>) {
      if (options_.integrity.invariants) {
        const std::size_t first = graph_.first_slot();
        const std::size_t n = graph_.num_slots() - first;
        const std::size_t parts = integrity::section_count(n);
        audit_.prev.assign(parts, program_.audit_identity());
        pool().parallel_for(parts, [&](std::size_t, runtime::Range r) {
          for (std::size_t p = r.begin; p < r.end; ++p) {
            const std::size_t begin = first + p * integrity::kSectionSlots;
            const std::size_t end =
                std::min(begin + integrity::kSectionSlots, first + n);
            for (std::size_t slot = begin; slot < end; ++slot) {
              program_.audit_accumulate(audit_.prev[p], values_[slot]);
            }
          }
        });
        audit_.has_prev = superstep_ > 0;
      }
    }
    if (options_.integrity.checksums &&
        ft::kTriviallyCheckpointable<Program>) {
      collect_checksums(checks_);
      checks_.superstep = superstep_;
      checks_.armed = true;
    }
  }

  /// Shared body of the *_checked entry points: typed failures become
  /// outcome data, configuration errors keep throwing.
  template <typename F>
  [[nodiscard]] RunOutcome to_outcome(F&& f) {
    RunOutcome out;
    try {
      out.result = f();
    } catch (const RunError& e) {
      out.error = e;
    } catch (const ft::InjectedFault& e) {
      out.error = RunError(RunErrorKind::kInjectedFault, e.superstep(), 0,
                           RunError::kNoVertex, e.what());
    }
    return out;
  }

  /// Distributes [0, n) under the configured scheduling policy and calls
  /// `fn(tid, i)` for every index. Every 64 indices each thread polls the
  /// cancellation flag and the watchdog deadlines, so a failing teammate
  /// or an expired deadline unwinds the whole team at vertex granularity.
  template <typename Fn>
  void for_indices(runtime::ThreadPool& workers, std::size_t n, Fn&& fn) {
    const auto body = [this, &fn, &workers](std::size_t tid,
                                            runtime::Range r) {
      const CursorRelease release{counters_[tid].cursor};
      std::size_t tick = 0;
      for (std::size_t i = r.begin; i < r.end; ++i) {
        if ((tick++ & 63u) == 0u && guard_tick(workers)) {
          return;
        }
        fn(tid, i);
      }
    };
    if (options_.schedule == Schedule::kDynamic) {
      workers.parallel_for_dynamic(n, options_.dynamic_chunk, body);
    } else {
      workers.parallel_for(n, body);
    }
  }

  void reset_state() {
    superstep_ = 0;
    const std::size_t first = graph_.first_slot();
    pool().parallel_for(
        graph_.num_slots() - first, [&](std::size_t, runtime::Range r) {
          for (std::size_t s = first + r.begin; s < first + r.end; ++s) {
            values_[s] = program_.initial_value(graph_.id_of(s));
            halted_[s] = 0;
          }
        });
    mail_->reset();
    if constexpr (Bypass) {
      frontier_->reset();
    }
    reset_directions();
    aggregator_.init(pool().size());
    reset_checkpoint_pacing();
    integrity_reset();
  }

  /// Scan-all selection: every vertex is checked, reading generation `cur`
  /// the way it was filled.
  template <Direction Read>
  void scan_all(runtime::ThreadPool& workers, unsigned cur) {
    const std::size_t first = graph_.first_slot();
    for_indices(workers, graph_.num_slots() - first,
                [&](std::size_t tid, std::size_t i) {
                  process_vertex<Read>(first + i, tid, cur);
                });
  }

  /// Selection check + message read + compute for one vertex. `Read` is
  /// how generation `cur` was filled: gather outboxes or consume the inbox.
  template <Direction Read>
  void process_vertex(std::size_t slot, std::size_t tid, unsigned cur) {
    if (fault_active_) {
      // Deterministic crash injection: after the configured number of
      // compute calls this superstep, every worker bails at its next
      // vertex boundary and the barrier throws ft::InjectedFault. No
      // signals, no exceptions off worker threads — but the abandoned
      // superstep leaves values half-updated and messages half-delivered,
      // which is the torn state a real crash produces.
      if (fault_tripped_.load(std::memory_order_relaxed)) {
        return;
      }
      if (fault_calls_.fetch_add(1, std::memory_order_relaxed) >=
          options_.fault.after_compute_calls) {
        fault_tripped_.store(true, std::memory_order_relaxed);
        return;
      }
    }
    Msg combined{};
    bool voted = false;
    try {
      bool has = false;
      if constexpr (Read == Direction::kPull) {
        if (superstep_ > 0) {
          has = gather(cur, slot, counters_[tid].cursor, combined);
        }
      } else {
        has = mail_->consume(cur, slot, combined);
      }
      // Scan-all selection: skip vertices that are halted with an empty
      // inbox — the "unfruitful checks" the bypass eliminates. (Under the
      // bypass every visited vertex has a message by construction.)
      if (!has && superstep_ > 0 && halted_[slot] != 0) {
        return;
      }
      Context ctx(*this, slot, tid, values_[slot], has ? &combined : nullptr);
      program_.compute(ctx);
      voted = ctx.voted_;
    } catch (...) {
      throw_vertex_failure(tid, slot, "compute()");
    }
    halted_[slot] = voted ? 1 : 0;
    ThreadState& c = counters_[tid];
    ++c.executed;
    if (!voted) {
      ++c.active;
    }
  }

  /// The gather phase of section 6.2: fetch every in-neighbour's armed
  /// generation-`gen` outbox and fold them in CSR order (first message,
  /// then combine). Read-only across vertices, writes stay intra-vertex:
  /// race-free by construction.
  bool gather(unsigned gen, std::size_t slot, Cursor& cursor,
              Msg& combined) const {
    bool has = false;
    graph_.for_each_in_neighbour(slot, cursor, [&](graph::vid_t u) {
      Msg m{};
      if (mail_->fetch(gen, graph_.slot_of(u), m)) {
        if (has) {
          Program::combine(combined, m);
        } else {
          combined = m;
          has = true;
        }
      }
    });
    return has;
  }

  // --- direction optimisation -----------------------------------------

  /// How this superstep's broadcasts travel, and how the generation it
  /// reads was filled (and so must be read: consumed or gathered).
  [[nodiscard]] Direction send_direction() const noexcept {
    if constexpr (kDirectional) {
      return send_dir_;
    } else {
      return kCombinerDirection;
    }
  }
  [[nodiscard]] Direction read_direction() const noexcept {
    if constexpr (kDirectional) {
      return read_dir_;
    } else {
      return kCombinerDirection;
    }
  }

  /// True when the bypass frontier is this superstep's selection. After a
  /// directional engine's pull superstep nobody claimed the recipients,
  /// so the superstep scans every vertex and gathers, as kPull does.
  [[nodiscard]] bool frontier_selects() const noexcept {
    return Bypass && (!kDirectional || read_dir_ == Direction::kPush);
  }

  /// The next superstep's send direction, from this superstep's message
  /// count `sent`. Pushing a message costs one locked delivery; pulling
  /// costs the next superstep one scan of |V| and one flag read per
  /// in-edge, whatever was sent. So the next superstep pulls when it is
  /// expected to send over kPullAbove·|E| messages and pushes again below
  /// kPushBelow·|E|. The expectation extrapolates the last two counts
  /// geometrically (sent·sent/last_sent_): a wave that grows or dies by
  /// 10x a superstep, as on scale-free graphs, is caught one superstep
  /// earlier than by `sent` alone; a steady wave is just `sent`. The first
  /// superstep (and the first after a restore) pushes, so a one-source
  /// program such as SSSP never pays a full scan.
  [[nodiscard]] Direction next_direction(std::size_t sent) const noexcept {
    if (!adaptive_) {
      return Direction::kPush;
    }
    const auto now = static_cast<double>(sent);
    const double expected =
        last_sent_ == 0 ? now : now * now / static_cast<double>(last_sent_);
    if (send_dir_ == Direction::kPush) {
      return expected > pull_above_ ? Direction::kPull : Direction::kPush;
    }
    return expected < push_below_ ? Direction::kPush : Direction::kPull;
  }

  void reset_directions() noexcept {
    read_dir_ = kCombinerDirection;
    send_dir_ = kCombinerDirection;
    last_sent_ = 0;
  }

  /// Heavyweight capture of a pull-filled generation in the push layout
  /// every snapshot of this version uses: each slot's gathered message
  /// becomes its inbox, and the frontier is exactly the flagged slots.
  /// A resume (fixed or adaptive) then consumes it like any push barrier.
  void capture_gathered(unsigned gen, ft::EngineSnapshot& snap) const {
    const std::size_t slots = graph_.num_slots();
    snap.inbox.assign(slots * sizeof(Msg), 0);
    snap.inbox_flags.assign(slots, 0);
    snap.frontier.clear();
    Cursor cursor{};
    for (std::size_t slot = graph_.first_slot(); slot < slots; ++slot) {
      Msg m{};
      if (gather(gen, slot, cursor, m)) {
        std::memcpy(snap.inbox.data() + slot * sizeof(Msg), &m, sizeof(Msg));
        snap.inbox_flags[slot] = 1;
        snap.frontier.push_back(slot);
      }
    }
  }

  /// Maps the exception in flight out of a vertex hook onto the run-
  /// failure taxonomy: RunError passes through; a topology that could not
  /// serve its edges (a paged graph's PageError or io::IoError, power loss
  /// included) is kPageError; anything else the program threw is
  /// kUserException. Call only from a catch block.
  [[noreturn]] void throw_vertex_failure(std::size_t tid, std::size_t slot,
                                         const char* hook) const {
    try {
      throw;
    } catch (const RunError&) {
      throw;  // already carries its context
    } catch (const std::exception& e) {
      throw RunError(topology_failure(e) ? RunErrorKind::kPageError
                                         : RunErrorKind::kUserException,
                     superstep_, tid, graph_.id_of(slot), e.what());
    } catch (...) {
      throw RunError(RunErrorKind::kUserException, superstep_, tid,
                     graph_.id_of(slot),
                     std::string(hook) + " threw a non-std::exception");
    }
  }

  [[nodiscard]] static bool topology_failure(const std::exception& e) {
    if constexpr (requires { Topology::is_page_failure(e); }) {
      return Topology::is_page_failure(e);
    } else {
      return false;
    }
  }

  /// A pull broadcast arms the sender's outbox and reads only the out-
  /// degree, never the targets (a paged topology streams no page for it),
  /// except that the pull combiner's bypass claims them in its frontier.
  /// A directional engine's pull superstep claims nothing: the next
  /// superstep finds its recipients by scanning.
  void do_broadcast(std::size_t slot, std::size_t tid, const Msg& msg) {
    const std::size_t degree = graph_.out_degree(slot);
    Cursor& cursor = counters_[tid].cursor;
    if (send_direction() == Direction::kPull) {
      if (degree != 0) {
        mail_->arm(nxt_gen_, slot, msg);
      }
      if constexpr (Bypass && Combiner == CombinerKind::kPull) {
        // Pull senders never touch recipient state, so recipients are
        // claimed through the frontier's dedup bitmap.
        graph_.for_each_out_target(slot, cursor, [&](graph::vid_t dst) {
          frontier_->add(graph_.slot_of(dst), tid);
        });
      }
    } else if constexpr (Combiner != CombinerKind::kPull) {
      push_to_out_neighbours(slot, tid, msg, cursor);
    }
    counters_[tid].sent += degree;
  }

  /// The push half of a broadcast, kept out of line: inlined, its lock and
  /// frontier code made do_broadcast too big to inline into compute(),
  /// which cost a direction-optimising engine's pull supersteps ~25% over
  /// kPull's for the same work.
  [[gnu::noinline]] void push_to_out_neighbours(std::size_t slot,
                                                std::size_t tid,
                                                const Msg& msg,
                                                Cursor& cursor) {
    graph_.for_each_out_target(slot, cursor, [&](graph::vid_t dst) {
      deliver_push(graph_.slot_of(dst), tid, msg);
    });
  }

  void do_send(graph::vid_t dst, std::size_t tid, const Msg& msg) {
    if constexpr (Combiner != CombinerKind::kPull) {
      deliver_push(graph_.slot_of(dst), tid, msg);
      ++counters_[tid].sent;
    }
  }

  /// Push-combiner delivery: combine under the recipient's lock; when the
  /// mailbox was empty this was the recipient's first message of the
  /// superstep, which is exactly the section-4 moment the sender appends
  /// the recipient to the next work list — no extra synchronisation.
  void deliver_push(std::size_t dst_slot, std::size_t tid, const Msg& msg) {
    const bool first =
        mail_->deliver(nxt_gen_, dst_slot, msg,
                       [](Msg& old, const Msg& incoming) {
                         Program::combine(old, incoming);
                       });
    if constexpr (Bypass) {
      if (first) {
        frontier_->add_claimed(dst_slot, tid);
      }
    } else {
      (void)first;
    }
  }

  const Topology& graph_;
  Program program_;
  EngineOptions options_;
  runtime::ThreadPool* external_pool_ = nullptr;
  std::unique_ptr<runtime::ThreadPool> owned_pool_;

  std::vector<Value> values_;
  std::vector<std::uint8_t> halted_;
  std::optional<MailStore> mail_;
  std::optional<Frontier> frontier_;
  std::vector<ThreadState> counters_;
  detail::AggregatorState<Program> aggregator_;

  std::size_t superstep_ = 0;
  unsigned cur_gen_ = 0;
  unsigned nxt_gen_ = 1;

  // Direction state of a kDirectional engine (see next_direction): how
  // the generation this superstep reads was filled, how this superstep
  // sends, the previous superstep's message count, and the switch
  // thresholds in messages.
  bool adaptive_ = false;
  Direction read_dir_ = kCombinerDirection;
  Direction send_dir_ = kCombinerDirection;
  std::size_t last_sent_ = 0;
  double pull_above_ = 0.0;
  double push_below_ = 0.0;

  // Fault injection (options_.fault): armed per-superstep, tripped once.
  bool fault_active_ = false;
  std::atomic<std::size_t> fault_calls_{0};
  std::atomic<bool> fault_tripped_{false};

  // Integrity-detector state (options_.integrity): tier-2 digests, tier-1
  // audit accumulators (empty struct for programs without auditors), and
  // the tier-3 sample of the superstep in flight.
  integrity::SectionChecksums checks_;
  integrity::AuditState<Program> audit_;
  std::vector<ShadowSample> shadow_;
  bool shadow_captured_ = false;

  // Watchdog state (options_.guards): deadlines armed per run/superstep by
  // thread 0, compared by every team member at guard ticks; the first trip
  // is recorded here and translated to a RunError at the barrier.
  static constexpr std::uint8_t kTripSuperstep = 1;
  static constexpr std::uint8_t kTripRun = 2;
  static constexpr std::uint8_t kTripCancelled = 3;
  GuardClock::time_point step_deadline_{};
  GuardClock::time_point run_deadline_{};
  bool step_deadline_armed_ = false;
  bool run_deadline_armed_ = false;
  std::atomic<std::uint8_t> guard_trip_{0};

  // Checkpoint pacing (adaptive trigger) + staging-buffer accounting.
  double since_checkpoint_seconds_ = 0.0;
  double checkpoint_cost_seconds_ = 0.0;
  runtime::MemReservation checkpoint_mem_;
  /// Publishes and retains this engine's snapshots; created at the first
  /// checkpoint.
  std::optional<ft::SnapshotDirectory> checkpoint_dir_;
  mutable std::uint64_t fingerprint_ = 0;

  runtime::MemReservation values_mem_;
  runtime::MemReservation internals_mem_;
};

}  // namespace ipregel
