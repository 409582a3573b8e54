#pragma once

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/aggregator_traits.hpp"
#include "core/program_traits.hpp"
#include "ft/recovery_dir.hpp"
#include "ft/snapshot.hpp"
#include "io/fault_wrap_vfs.hpp"
#include "io/vfs.hpp"
#include "shard/channel.hpp"
#include "shard/layout.hpp"
#include "shard/options.hpp"
#include "shard/partition.hpp"
#include "shard/slice.hpp"
#include "shard/tcp_transport.hpp"
#include "shard/transport.hpp"

namespace ipregel::shard {

/// Worker exit codes the coordinator distinguishes from fault-injected
/// deaths (anything else is "crashed").
inline constexpr int kWorkerExitHalt = 0;         ///< computation converged
inline constexpr int kWorkerExitAbort = 3;        ///< coordinator said kAbort
inline constexpr int kWorkerExitOrphan = 4;       ///< coordinator vanished
inline constexpr int kWorkerExitStuck = 5;        ///< peer link never drained
inline constexpr int kWorkerExitUnreachable = 6;  ///< reconnect budget spent

/// Sentinel for WorkerConfig::resume_cap: no cut negotiation, restore to
/// the newest valid snapshot as usual.
inline constexpr std::uint64_t kNoResumeCap = ft::RecoveryDirectory::kNoLimit;

/// Everything one worker process needs, assembled by the coordinator
/// pre-fork. References point into the parent's address space; fork's
/// copy-on-write snapshot keeps them valid in the child.
template <VertexProgram Program>
struct WorkerConfig {
  const graph::CsrGraph* graph = nullptr;
  const Program* program = nullptr;
  const ShardOptions* options = nullptr;
  const ArenaSpec* spec = nullptr;    ///< kShm only
  const ShmArena* arena = nullptr;    ///< kShm only
  TcpRendezvous* rendezvous = nullptr;  ///< kTcp only
  std::size_t me = 0;
  std::size_t generation = 0;
  std::uint64_t graph_fp = 0;

  // --- coordinator-recovery extras (inert defaults otherwise) -------------
  /// Fencing epoch of the spawning coordinator incarnation; the worker
  /// refuses to obey anything older.
  std::uint64_t coord_epoch = 0;
  /// Full-respawn cut negotiation: restore to the newest valid snapshot
  /// AT OR BELOW this superstep and report the achieved resume point with
  /// an active == 2 hello. A worker that cannot reach the cut parks until
  /// the coordinator lowers it (by killing the round).
  std::uint64_t resume_cap = kNoResumeCap;
};

/// The worker process body: restore-or-initialise, then the BSP loop —
/// one Engine superstep over this shard's slice, post the combined
/// frames, drain peers in source order, publish values, enter the
/// barrier, wait for the release. Runs single-threaded;
/// heartbeats are sent from inside these loops, so liveness certifies
/// progress. All I/O goes through the Transport seam, so the SAME loop
/// runs over shared-memory rings and TCP streams. Never returns normally
/// — the caller `_exit`s with the returned code. Must not touch the
/// parent's stdio/test state.
template <VertexProgram Program>
class Worker {
 public:
  using Value = typename Program::value_type;
  using Msg = typename Program::message_type;

  Worker(const WorkerConfig<Program>& cfg,
         std::unique_ptr<Transport> transport)
      : cfg_(cfg),
        transport_(std::move(transport)),
        part_(*cfg.graph, cfg.options->num_shards, cfg.options->partition),
        slice_(*cfg.graph, *cfg.program, part_, cfg.me, cfg.graph_fp) {
    const std::size_t n = cfg_.options->num_shards;
    coord_epoch_ = cfg.coord_epoch;
    pending_.resize(n);
    floor_.assign(n, 0);
    for (const ShardFault& f : cfg_.options->faults) {
      if (f.shard == cfg_.me && f.generation == cfg_.generation &&
          f.kind != ShardFault::Kind::kNone) {
        armed_.push_back(f);
      }
    }
  }

  [[nodiscard]] int run() {
    std::uint64_t resume = 0;
    ft::CheckpointMode restored_mode = ft::CheckpointMode::kHeavyweight;
    bool restored = false;
    const bool negotiated = cfg_.resume_cap != kNoResumeCap;
    if (negotiated) {
      // Full-respawn cut negotiation: the takeover coordinator proposed a
      // cut; restore only up to it and report what was actually reached.
      if (cfg_.options->checkpoint.enabled() && cfg_.resume_cap > 0) {
        restored = try_restore(cfg_.resume_cap, resume, restored_mode);
      }
    } else if (cfg_.generation > 0 && cfg_.options->checkpoint.enabled()) {
      restored = try_restore(kNoResumeCap, resume, restored_mode);
    }
    if (!restored) {
      resume = 0;
      slice_.engine.reset();
    }
    superstep_now_ = resume;

    CtrlMsg hello;
    hello.kind = CtrlMsg::Kind::kHello;
    hello.shard = static_cast<std::uint32_t>(cfg_.me);
    hello.superstep = resume;
    hello.flag = cfg_.generation;
    hello.sent = static_cast<std::uint64_t>(::getpid());
    hello.active = negotiated ? 2 : 0;
    hello.epoch = coord_epoch_;
    if (!transport_->ctrl_send(hello)) {
      if (!on_ctrl_down()) {
        return kWorkerExitOrphan;
      }
    }

    if (negotiated && resume != cfg_.resume_cap) {
      // Could not reach the cut. The hello reported the achieved resume;
      // the coordinator will lower the cut and SIGKILL this round. Park,
      // serving control traffic (kAbort still exits typed) until then.
      for (;;) {
        pump(5);
        heartbeat();
      }
    }

    if (restored && restored_mode == ft::CheckpointMode::kLightweight &&
        resume > 0) {
      // The restore regenerated superstep resume-1's messages (resend)
      // into the outboxes, every destination's slice.
      if (negotiated) {
        // Everyone restored the SAME cut: nobody holds retained frames,
        // so each worker pushes its own regenerated slices.
        rebuild_all(resume);
      } else {
        // Rebuild inbox_resume from the survivors' republished frames
        // with our own regenerated self slice at source position `me` —
        // the original source-order fold, bit for bit. The remote slices
        // are not ours to deliver: the survivors' state reflects them.
        for (std::size_t src = 0; src < part_.shards(); ++src) {
          floor_[src] = resume - 1;
        }
        const std::vector<std::uint8_t> self_frame =
            slice_.outboxes.take_outbox(cfg_.me);
        slice_.outboxes.clear();
        exchange(resume - 1, self_frame);
      }
    } else {
      for (std::size_t src = 0; src < part_.shards(); ++src) {
        floor_[src] = resume;
      }
    }

    std::uint64_t s = resume;
    for (;;) {
      superstep_now_ = s;
      const SuperstepStats counts = slice_.engine.step([&] {
        maybe_fault(ShardFault::Phase::kCompute, s);
        heartbeat();
        pump(0);
        drain_frames();
      });

      // Post this superstep's combined frames and retain them for
      // recovering peers.
      RetainedGen gen;
      gen.superstep = s;
      gen.frames.resize(part_.shards());
      for (std::size_t dst = 0; dst < part_.shards(); ++dst) {
        gen.frames[dst] = slice_.outboxes.take_outbox(dst);
        if (dst != cfg_.me) {
          push_frame(dst, s, gen.frames[dst]);
        }
      }
      std::vector<std::uint8_t> self_frame = std::move(gen.frames[cfg_.me]);
      gen.frames[cfg_.me].clear();
      retained_.push_back(std::move(gen));
      while (retained_.size() > cfg_.options->retain_supersteps) {
        retained_.pop_front();
      }
      maybe_fault(ShardFault::Phase::kAfterPost, s);

      // Collect every peer's frame for this superstep into the NEXT
      // inbox, self at its source position.
      exchange(s, self_frame);

      // Publish values BEFORE the barrier: if the run halts at this
      // superstep the board is already complete, and a death after this
      // point loses nothing a redo will not rewrite.
      transport_->publish_values(slice_.value_bytes(), sizeof(Value),
                                 slice_.topology.owned_slots());

      CtrlMsg barrier;
      barrier.kind = CtrlMsg::Kind::kBarrier;
      barrier.shard = static_cast<std::uint32_t>(cfg_.me);
      barrier.superstep = s;
      barrier.sent = counts.messages_sent;
      barrier.active = counts.remaining_active;
      barrier.executed = counts.executed_vertices;
      barrier.epoch = coord_epoch_;
      if constexpr (HasSerializableAggregator<Program>) {
        const auto agg =
            aggregate_to_bytes<Program>(slice_.engine.aggregated());
        static_assert(sizeof(typename Program::aggregate_type) <=
                          CtrlMsg::kMaxAggregate,
                      "aggregate_type too large for the control plane");
        barrier.payload_len = static_cast<std::uint32_t>(agg.size());
        std::memcpy(barrier.payload, agg.data(), agg.size());
      }
      // Keep the latest barrier around: a takeover coordinator never saw
      // it, so an adoption re-sends it for re-collection. Duplicates of
      // COMMITTED barriers are answered from the release history.
      pending_barrier_ = barrier;
      if (!transport_->ctrl_send(barrier)) {
        if (!on_ctrl_down()) {
          return kWorkerExitOrphan;
        }
      }

      const CtrlMsg proceed = await_proceed(s);
      if (static_cast<CtrlMsg::Command>(proceed.flag) ==
          CtrlMsg::Command::kHalt) {
        // TCP: push the final values to the coordinator before exiting
        // (shm published them into the shared board already). Failure is
        // typed on the coordinator side — missing values fail the run.
        if (!transport_->finish_values()) {
          return kWorkerExitOrphan;
        }
        if (transport_->needs_values_ack()) {
          // Resilient TCP halt: the stream dies with this process, so hold
          // until the coordinator confirms the values are durably its —
          // a coordinator crash inside the halt window then re-collects
          // them from the reconnect backlog instead of losing them.
          return await_values_ack() ? kWorkerExitHalt : kWorkerExitOrphan;
        }
        return kWorkerExitHalt;
      }
      if constexpr (HasSerializableAggregator<Program>) {
        slice_.engine.set_aggregated(aggregate_from_bytes<Program>(
            std::span<const std::uint8_t>(proceed.payload,
                                          proceed.payload_len)));
      }

      maybe_fault(ShardFault::Phase::kBeforeCheckpoint, s);
      const std::uint64_t next = s + 1;
      if (checkpoint_due(next)) {
        write_checkpoint();
      }
      maybe_fault(ShardFault::Phase::kAfterCheckpoint, s);
      s = next;
    }
  }

 private:
  struct RetainedGen {
    std::uint64_t superstep = 0;
    std::vector<std::vector<std::uint8_t>> frames;  ///< per dst; self empty
  };

  [[nodiscard]] static double now() noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  [[nodiscard]] std::string shard_dir() const {
    return cfg_.options->checkpoint.directory + "/shard" +
           std::to_string(cfg_.me);
  }

  /// Restores from the newest per-shard snapshot at or below `cap` that
  /// passes structural AND binding validation (graph, program, shard
  /// topology, slot range); failing candidates are quarantined. Under cut
  /// negotiation (`cap` set) snapshots above the proposed cut are
  /// perfectly good and are left alone. A scripted RestoreFault wraps the
  /// directory's filesystem in io::ReadFaultVfs, so the newest snapshot
  /// reads as EIO, gets quarantined, and the walk falls back a generation
  /// — all through the production code path.
  bool try_restore(std::uint64_t cap, std::uint64_t& resume,
                   ft::CheckpointMode& mode) {
    io::Vfs* base = cfg_.options->checkpoint.vfs;
    std::optional<io::ReadFaultVfs> faulty;
    for (const RestoreFault& rf : cfg_.options->restore_faults) {
      if (cap == kNoResumeCap && rf.shard == cfg_.me &&
          rf.generation == cfg_.generation) {
        faulty.emplace(io::vfs_or_real(base), rf.fail_reads);
      }
    }
    ft::SnapshotDirectory dir(shard_dir(), cfg_.options->checkpoint.basename,
                              faulty.has_value() ? &*faulty : base,
                              cfg_.options->checkpoint.keep);
    const auto validator = [this](const ft::EngineSnapshot& snap) {
      return slice_.engine.validate(snap);
    };
    std::optional<ft::SnapshotDirectory::Loaded> found;
    try {
      found = dir.newest_valid(validator, cap);
    } catch (const std::exception&) {
      return false;  // unreadable directory — restart from scratch
    }
    if (!found.has_value()) {
      return false;
    }
    slice_.engine.restore_state(found->snapshot);
    resume = found->superstep;
    mode = found->snapshot.meta.mode;
    return true;
  }

  /// Full-respawn rebuild of the in-flight state at a lightweight cut:
  /// every worker restored the SAME superstep, so nobody holds anybody's
  /// retained frames. Each worker's restore regenerated ALL its outboxes
  /// via resend semantics as superstep resume-1; it pushes the remote
  /// slices and folds every source's frame (its own included, at source
  /// position `me`) in ascending source order into the current inbox —
  /// the original superstep-(resume-1) exchange, bit for bit.
  void rebuild_all(std::uint64_t resume) {
    for (std::size_t src = 0; src < part_.shards(); ++src) {
      floor_[src] = resume - 1;
    }
    RetainedGen gen;
    gen.superstep = resume - 1;
    gen.frames.resize(part_.shards());
    for (std::size_t dst = 0; dst < part_.shards(); ++dst) {
      gen.frames[dst] = slice_.outboxes.take_outbox(dst);
      if (dst != cfg_.me) {
        push_frame(dst, resume - 1, gen.frames[dst]);
      }
    }
    std::vector<std::uint8_t> self_frame = std::move(gen.frames[cfg_.me]);
    gen.frames[cfg_.me].clear();
    retained_.push_back(std::move(gen));
    exchange(resume - 1, self_frame);
  }

  /// The coordinator is gone for good on the current link. With recovery
  /// enabled, park on the reattach rendezvous awaiting a fenced takeover;
  /// on adoption, re-introduce this live incarnation (hello.active == 1,
  /// pid attached) and re-send the latest barrier so the takeover can
  /// re-collect anything its predecessor never committed. False = recovery
  /// disabled or the park window expired — the caller exits orphan, the
  /// bounded-exit guarantee.
  bool on_ctrl_down() {
    const RecoveryOptions& rec = cfg_.options->recovery;
    if (!rec.enabled()) {
      return false;
    }
    const auto epoch =
        transport_->reattach_ctrl(rec.park_seconds, coord_epoch_);
    if (!epoch.has_value()) {
      return false;
    }
    coord_epoch_ = std::max(coord_epoch_, *epoch);
    transport_->note_epoch(coord_epoch_);
    CtrlMsg hello;
    hello.kind = CtrlMsg::Kind::kHello;
    hello.shard = static_cast<std::uint32_t>(cfg_.me);
    hello.superstep = superstep_now_;
    hello.flag = cfg_.generation;
    hello.sent = static_cast<std::uint64_t>(::getpid());
    hello.active = 1;  // adoption: a live incarnation re-binding
    hello.epoch = coord_epoch_;
    if (!transport_->ctrl_send(hello)) {
      return false;
    }
    if (pending_barrier_.has_value()) {
      CtrlMsg barrier = *pending_barrier_;
      barrier.epoch = coord_epoch_;
      if (!transport_->ctrl_send(barrier)) {
        return false;
      }
    }
    return true;
  }

  /// Resilient TCP halt hold: wait (bounded by the park window) for the
  /// coordinator's durable-receipt ack. The transport keeps reconnecting
  /// underneath — a takeover gets the values re-sent from the backlog and
  /// acks once its own values blob is durable.
  bool await_values_ack() {
    const double deadline =
        now() + std::max(cfg_.options->recovery.park_seconds, 1.0) + 2.0;
    while (now() < deadline) {
      const auto msg = transport_->ctrl_recv(10);
      if (msg.has_value()) {
        if (msg->kind == CtrlMsg::Kind::kValuesAck) {
          return true;
        }
        if (msg->kind == CtrlMsg::Kind::kAbort) {
          ::_exit(kWorkerExitAbort);
        }
      }
      if (transport_->ctrl_down()) {
        return false;
      }
      heartbeat();
    }
    return false;
  }

  [[nodiscard]] bool checkpoint_due(std::uint64_t resume) const noexcept {
    const ft::CheckpointPolicy& p = cfg_.options->checkpoint;
    if (!p.enabled() || resume == 0) {
      return false;
    }
    // kAdaptive degenerates to every-superstep here: per-shard cost
    // modelling is a coordinator concern the shard runtime does not
    // duplicate.
    const std::size_t every =
        p.trigger == ft::CheckpointTrigger::kEveryK ? std::max<std::size_t>(
                                                          p.every, 1)
                                                    : 1;
    return resume % every == 0;
  }

  void write_checkpoint() {
    const ft::CheckpointPolicy& p = cfg_.options->checkpoint;
    io::Vfs& vfs = io::vfs_or_real(p.vfs);
    try {
      if (!vfs.exists(shard_dir())) {
        vfs.mkdir(shard_dir());
      }
      if (!checkpoint_dir_.has_value()) {
        checkpoint_dir_.emplace(shard_dir(), p.basename, p.vfs, p.keep);
      }
      checkpoint_dir_->publish(
          slice_.engine.capture_state(p.mode),
          [this](const ft::EngineSnapshot& s) {
            return slice_.engine.validate(s);
          });
    } catch (const std::exception&) {
      // Losing one checkpoint costs recomputation, not correctness; the
      // next trigger retries.
    }
  }

  void heartbeat() {
    const double t = now();
    if (t - last_heartbeat_ < cfg_.options->heartbeat_interval_seconds) {
      return;
    }
    last_heartbeat_ = t;
    CtrlMsg hb;
    hb.kind = CtrlMsg::Kind::kHeartbeat;
    hb.shard = static_cast<std::uint32_t>(cfg_.me);
    hb.epoch = coord_epoch_;
    if (!transport_->ctrl_send(hb)) {
      // The heartbeat is sent from inside every blocking loop, so this is
      // where a coordinator death is usually first noticed — and where
      // the park-and-reattach (or the bounded orphan exit) happens.
      if (!on_ctrl_down()) {
        ::_exit(kWorkerExitOrphan);
      }
    }
  }

  void maybe_fault(ShardFault::Phase phase, std::uint64_t superstep) {
    for (ShardFault& f : armed_) {
      if (f.kind == ShardFault::Kind::kNone || f.phase != phase ||
          f.superstep != superstep) {
        continue;
      }
      const ShardFault::Kind kind = f.kind;
      f.kind = ShardFault::Kind::kNone;  // fire once
      if (kind == ShardFault::Kind::kSigkill) {
        ::kill(::getpid(), SIGKILL);
      }
      // kHang: stop progressing AND stop heartbeating; only the
      // coordinator's watchdog can end this incarnation.
      for (;;) {
        ::pause();
      }
    }
  }

  /// Moves every collectable frame from the peer links into the pending
  /// stash, dropping stale generations (below the per-source floor) and
  /// duplicates (republished frames are byte-identical to the originals).
  /// Reconnected peers reported by the transport get the full retained
  /// republish — the resync half of reconnect-with-resync.
  void drain_frames() {
    for (std::size_t src = 0; src < part_.shards(); ++src) {
      if (src == cfg_.me) {
        continue;
      }
      while (auto frame = transport_->try_collect(src)) {
        if (frame->header.superstep < floor_[src]) {
          continue;
        }
        pending_[src].emplace(frame->header.superstep,
                              std::move(frame->payload));
      }
    }
    for (const std::size_t peer : transport_->take_resync_peers()) {
      // Superstep 0 = "republish everything retained": the peer's dedup
      // (floor + byte-identical duplicates) keeps the overshoot safe.
      CtrlMsg req;
      req.kind = CtrlMsg::Kind::kRecover;
      req.shard = static_cast<std::uint32_t>(peer);
      req.superstep = 0;
      deferred_recover_.push_back(req);
    }
    if (!in_push_ && !deferred_recover_.empty()) {
      flush_recover();
    }
  }

  /// Processes queued control messages. kProceed is returned to the
  /// caller (only the barrier wait expects one); everything else is
  /// handled inline. Republishing is deferred while a frame push is in
  /// flight to keep pushes non-reentrant.
  std::optional<CtrlMsg> pump(int timeout_ms) {
    const auto msg = transport_->ctrl_recv(timeout_ms);
    if (!msg.has_value()) {
      return std::nullopt;
    }
    if (cfg_.options->recovery.enabled()) {
      if (msg->epoch < coord_epoch_) {
        // A fenced incarnation's message still in flight: never obeyed.
        return std::nullopt;
      }
      if (msg->epoch > coord_epoch_) {
        coord_epoch_ = msg->epoch;
        transport_->note_epoch(coord_epoch_);
      }
    }
    switch (msg->kind) {
      case CtrlMsg::Kind::kAbort:
        ::_exit(kWorkerExitAbort);
      case CtrlMsg::Kind::kRecover:
        if (msg->shard != cfg_.me) {
          deferred_recover_.push_back(*msg);
          if (!in_push_) {
            flush_recover();
          }
        }
        return std::nullopt;
      case CtrlMsg::Kind::kProceed:
        return msg;
      default:
        return std::nullopt;
    }
  }

  /// Republishes retained frames to a recovering peer: every generation
  /// from its rebuild horizon (resume - 1 covers a lightweight rebuild)
  /// onward, oldest first so the receiver's cursor walks them in order.
  void flush_recover() {
    while (!deferred_recover_.empty()) {
      const CtrlMsg req = deferred_recover_.front();
      deferred_recover_.pop_front();
      const std::size_t peer = req.shard;
      const std::uint64_t oldest =
          req.superstep == 0 ? 0 : req.superstep - 1;
      for (const RetainedGen& gen : retained_) {
        if (gen.superstep < oldest) {
          continue;
        }
        push_frame(peer, gen.superstep, gen.frames[peer]);
      }
    }
  }

  /// Blocking publish with liveness: spins draining our own inputs and
  /// heartbeating until the frame fits (ring full / TCP link down or
  /// backpressured). A link that stays unwritable past the deadline means
  /// the peer is dead and the coordinator lost track of it — exiting lets
  /// the supervisor treat US as the failure and untangle.
  void push_frame(std::size_t dst, std::uint64_t superstep,
                  std::span<const std::uint8_t> payload) {
    in_push_ = true;
    const double deadline = now() + push_deadline_seconds();
    while (!transport_->try_publish(dst, superstep, payload)) {
      drain_frames();
      pump(1);
      heartbeat();
      if (now() > deadline) {
        ::_exit(kWorkerExitStuck);
      }
    }
    in_push_ = false;
    if (!deferred_recover_.empty()) {
      flush_recover();
    }
  }

  [[nodiscard]] double push_deadline_seconds() const noexcept {
    const double hang = cfg_.options->hang_timeout_seconds > 0.0
                            ? cfg_.options->hang_timeout_seconds
                            : (cfg_.options->guards.superstep_seconds > 0.0
                                   ? cfg_.options->guards.superstep_seconds
                                   : 30.0);
    return hang * 4.0;
  }

  /// Applies every source's frame for `superstep` in ascending source
  /// order, `self_frame` at our own position, into the inbox the engine's
  /// next superstep reads — the determinism backbone.
  void exchange(std::uint64_t superstep,
                const std::vector<std::uint8_t>& self_frame) {
    for (std::size_t src = 0; src < part_.shards(); ++src) {
      if (src == cfg_.me) {
        apply_frame(self_frame, slice_.engine);
        continue;
      }
      for (;;) {
        auto it = pending_[src].find(superstep);
        if (it != pending_[src].end()) {
          apply_frame(it->second, slice_.engine);
          pending_[src].erase(pending_[src].begin(), std::next(it));
          floor_[src] = std::max(floor_[src], superstep + 1);
          break;
        }
        drain_frames();
        pump(1);
        heartbeat();
      }
    }
  }

  /// Waits at the barrier for the release of `superstep`, draining links
  /// (peers may already be posting the next superstep) and serving
  /// recovery requests meanwhile.
  [[nodiscard]] CtrlMsg await_proceed(std::uint64_t superstep) {
    for (;;) {
      if (const auto msg = pump(2)) {
        if (msg->superstep == superstep) {
          return *msg;
        }
        // A stale release for a superstep we already passed — possible
        // only for redone barriers; ignore.
      }
      drain_frames();
      heartbeat();
    }
  }

  WorkerConfig<Program> cfg_;
  std::unique_ptr<Transport> transport_;
  ShardPartition part_;
  Slice<Program> slice_;

  /// Received-but-unapplied frames per source, keyed by superstep.
  std::vector<std::map<std::uint64_t, std::vector<std::uint8_t>>> pending_;
  /// Frames below this per-source superstep are stale duplicates.
  std::vector<std::uint64_t> floor_;
  /// Our recent outgoing frames, kept for peers that respawn behind us.
  std::deque<RetainedGen> retained_;
  std::deque<CtrlMsg> deferred_recover_;
  std::vector<ShardFault> armed_;
  /// Publishes and retains this shard's snapshots; created at the first
  /// checkpoint.
  std::optional<ft::SnapshotDirectory> checkpoint_dir_;

  double last_heartbeat_ = 0.0;
  bool in_push_ = false;

  /// Newest coordinator fencing epoch this worker has obeyed.
  std::uint64_t coord_epoch_ = 0;
  /// Superstep the run loop is currently in (adoption hellos report it).
  std::uint64_t superstep_now_ = 0;
  /// Latest barrier sent, re-sent on adoption by a takeover coordinator.
  std::optional<CtrlMsg> pending_barrier_;
};

/// Child-process entry: builds the transport matching the configured
/// plane and runs the worker. Defined out of Worker so the coordinator's
/// fork branch is one call.
template <VertexProgram Program>
[[noreturn]] inline void worker_main(const WorkerConfig<Program>& cfg,
                                     Channel channel) {
  int code = 1;
  try {
    std::unique_ptr<Transport> transport;
    if (cfg.options->transport == TransportKind::kTcp) {
      cfg.rendezvous->close_in_child_except(cfg.me);
      transport = make_tcp_transport(*cfg.rendezvous, cfg.me, cfg.generation,
                                     *cfg.options);
    } else {
      auto shm = std::make_unique<ShmTransport>(
          *cfg.spec, *cfg.arena, cfg.me, cfg.options->num_shards,
          std::move(channel));
      if (cfg.options->recovery.enabled()) {
        shm->set_reattach_path(cfg.options->recovery.directory +
                               "/reattach.sock");
      }
      transport = std::move(shm);
    }
    transport->note_epoch(cfg.coord_epoch);
    Worker<Program> worker(cfg, std::move(transport));
    code = worker.run();
  } catch (const PeerUnreachable&) {
    code = kWorkerExitUnreachable;
  } catch (...) {
    code = 2;
  }
  ::_exit(code);
}

}  // namespace ipregel::shard
