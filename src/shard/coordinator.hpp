#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregator_traits.hpp"
#include "core/program_traits.hpp"
#include "core/run_error.hpp"
#include "ft/binary_format.hpp"
#include "ft/checkpoint_contract.hpp"
#include "ft/fingerprint.hpp"
#include "io/fault_wrap_vfs.hpp"
#include "io/stream.hpp"
#include "io/vfs.hpp"
#include "shard/channel.hpp"
#include "shard/layout.hpp"
#include "shard/manifest.hpp"
#include "shard/options.hpp"
#include "shard/partition.hpp"
#include "shard/slice.hpp"
#include "shard/supervisor.hpp"
#include "shard/tcp_transport.hpp"
#include "shard/transport.hpp"
#include "shard/worker.hpp"

namespace ipregel::shard {

/// Death notification the resilient supervisor relays for workers it
/// reaped on the coordinator's behalf (adopted workers are children of a
/// DEAD coordinator incarnation, reparented to the supervisor — the live
/// coordinator cannot waitpid them). One fixed-size record per pipe
/// write, always below PIPE_BUF, so reads never tear.
struct CoordOrphanDeath {
  std::int32_t pid = 0;
  std::int32_t status = 0;
};

/// How run_sharded_resilient boots one coordinator incarnation: the
/// supervisor owns every cross-incarnation resource (the shm arena, the
/// TCP rendezvous, the reattach listener, the orphan-death pipe) and each
/// forked coordinator borrows them. A default-constructed boot is the
/// plain run_sharded path: no recovery, everything owned by the
/// Coordinator itself.
struct RecoveryBoot {
  /// Entered through run_sharded_resilient: honour RecoveryOptions and
  /// CoordFaults. Plain run_sharded leaves this false and both are
  /// cleared — a coordinator with no supervisor must not kill itself.
  bool resilient = false;
  /// This incarnation continues a run a dead coordinator left behind.
  bool takeover = false;
  /// 0 = the first incarnation; takeovers are 1, 2, ... (what the
  /// stale_epoch_at_takeover test hook indexes).
  std::size_t takeover_index = 0;
  /// Supervisor-owned shm plane (kShm only): arena + finalized spec.
  const ArenaSpec* spec = nullptr;
  const ShmArena* arena = nullptr;
  /// Supervisor-owned TCP rendezvous (kTcp only).
  TcpRendezvous* rendezvous = nullptr;
  /// Supervisor-owned reattach listener (kShm only) parked workers
  /// connect to; the coordinator accepts and adopts.
  Channel* reattach = nullptr;
  /// Read end of the supervisor's orphan-death pipe (CoordOrphanDeath
  /// records), O_NONBLOCK. -1 = none.
  int orphan_fd = -1;
  /// Write end of this incarnation's result pipe. The coordinator itself
  /// writes its outcome there at the END of run(); here it is only so
  /// spawn() can close the inherited copy in every worker child —
  /// otherwise a coordinator crash would leave the pipe open (no EOF)
  /// until the last parked worker died.
  int result_fd = -1;
};

/// The coordinator half of the sharded runtime: forks one worker process
/// per shard, runs the BSP barrier protocol over a CtrlPlane (SEQPACKET
/// channels for shm, accepted TCP streams for kTcp), watches liveness
/// (waitpid + heartbeat deadlines), and — through ShardSupervisor —
/// respawns failed shards from their newest valid snapshot while the
/// survivors replay retained frames to them. Single-threaded: one poll
/// loop owns every fd and every child, so there is nothing to lock and
/// fork() has no threading caveats.
///
/// With coordinator recovery enabled (run_sharded_resilient), the
/// coordinator itself becomes a recoverable failure domain:
///  - WRITE-AHEAD MANIFEST: every barrier release is published to the
///    durable run manifest BEFORE any kProceed is sent. A coordinator
///    death on either side of that line is safe — died-before-commit
///    means the workers re-send their barrier and the deterministic
///    re-fold reproduces the identical release; died-after-commit means
///    the release is replayed from history. Counters are folded exactly
///    once per superstep either way.
///  - FENCED TAKEOVER: a takeover claims fencing epoch max-seen + 1 and
///    publishes the claim before touching any worker. Workers reject any
///    older epoch with kFenced; a fenced coordinator stands down with
///    RunErrorKind::kCoordinatorFenced WITHOUT killing anything — the
///    run belongs to a newer incarnation.
///  - ADOPTION: parked survivors re-bind over the reattach rendezvous
///    (shm) or the ordinary reconnect machinery (TCP); shards that never
///    re-attach are respawned from their newest valid snapshot.
template <VertexProgram Program>
class Coordinator {
 public:
  using Value = typename Program::value_type;
  using Msg = typename Program::message_type;

  Coordinator(const graph::CsrGraph& graph, Program program,
              const ShardOptions& options)
      : Coordinator(graph, std::move(program), options, RecoveryBoot{}) {}

  Coordinator(const graph::CsrGraph& graph, Program program,
              const ShardOptions& options, const RecoveryBoot& boot)
      : graph_(graph),
        program_(std::move(program)),
        options_(options),
        part_(graph, options.num_shards, options.partition),
        supervisor_(options.supervisor, part_.shards()),
        resilient_(boot.resilient),
        takeover_(boot.resilient && boot.takeover),
        takeover_index_(boot.takeover_index),
        reattach_(boot.reattach),
        orphan_fd_(boot.orphan_fd),
        result_fd_(boot.result_fd) {
    if (!resilient_) {
      // Plain run_sharded has no supervisor to fork a takeover: recovery
      // and coordinator faults are inert by contract.
      options_.recovery = RecoveryOptions{};
      options_.coord_faults.clear();
    }
    validate_options();
    graph_fp_ = ft::graph_fingerprint(graph_);
    if (options_.transport == TransportKind::kTcp) {
      // TCP needs no shared arena at all: data frames go shard-to-shard
      // over sockets and the final values come back as kValues frames
      // into net_board_. Listeners are bound BEFORE any fork so every
      // worker (and every respawn) inherits every port.
      if (boot.rendezvous != nullptr) {
        rendezvous_view_ = boot.rendezvous;
      } else {
        rendezvous_ = std::make_unique<TcpRendezvous>(part_.shards());
        rendezvous_view_ = rendezvous_.get();
      }
      net_board_.assign(graph_.num_slots() * sizeof(Value), 0);
      auto tcp = std::make_unique<TcpCtrlPlane>(
          rendezvous_view_->ctrl_listener(), part_.shards(), options_.net,
          &net_board_);
      tcp_ctrl_ = tcp.get();
      ctrl_ = std::move(tcp);
    } else {
      if (boot.spec != nullptr && boot.arena != nullptr) {
        spec_ = *boot.spec;
        arena_view_ = boot.arena;
      } else {
        build_arena();
      }
      ctrl_ = std::make_unique<ShmCtrlPlane>(part_.shards());
    }
    history_keep_ = options_.retain_supersteps + 8;
    if (options_.recovery.enabled() && options_.checkpoint.enabled()) {
      // A full-respawn cut can reach back as far as the oldest retained
      // snapshot; the manifest's release history must cover the whole
      // redo range [cut, barrier).
      history_keep_ = std::max(
          history_keep_,
          options_.checkpoint.keep *
                  std::max<std::size_t>(options_.checkpoint.every, 1) +
              8);
    }
    if (options_.recovery.enabled()) {
      manifest_dir_.emplace(manifest_directory(options_.recovery.directory,
                                               nullptr, kKeepManifests));
    }
  }

  /// The per-shard-pair arena layout this configuration needs — exposed
  /// so run_sharded_resilient can build ONE arena that outlives every
  /// coordinator incarnation.
  [[nodiscard]] static ArenaSpec make_arena_spec(const graph::CsrGraph& graph,
                                                 const ShardPartition& part,
                                                 const ShardOptions& options) {
    // Extra bytes per ring beyond the computed minimum.
    constexpr std::size_t kRingSlackBytes = 4096;
    ArenaSpec spec;
    const std::size_t n = part.shards();
    spec.shards = n;
    spec.ring_capacity.assign(n * n, 0);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (src == dst) {
          continue;
        }
        const std::size_t frame =
            sizeof(FrameHeader) + Outboxes<Msg>::max_frame_bytes(part, dst);
        // Sized for the steady state (two supersteps in flight) plus a
        // full recovery republish burst, so producers practically never
        // block.
        spec.ring_capacity[src * n + dst] =
            (options.retain_supersteps + 2) * frame + kRingSlackBytes;
      }
    }
    spec.board_bytes = graph.num_slots() * sizeof(Value);
    spec.finalize();
    return spec;
  }

  [[nodiscard]] ShardOutcome run(std::vector<Value>* out_values) {
    const double t0 = now();
    start_ = t0;
    if (options_.checkpoint.enabled()) {
      io::Vfs& vfs = io::vfs_or_real(options_.checkpoint.vfs);
      if (!vfs.exists(options_.checkpoint.directory)) {
        vfs.mkdir(options_.checkpoint.directory);
      }
    }
    workers_.resize(part_.shards());
    entries_.assign(part_.shards(), std::nullopt);
    if (options_.recovery.enabled()) {
      boot_recovery();
    }
    if (!outcome_.error.has_value()) {
      if (takeover_) {
        begin_takeover();
      } else {
        for (std::size_t shard = 0; shard < part_.shards(); ++shard) {
          spawn(shard, 0);
        }
      }
    }

    while (!done_) {
      if (outcome_.error.has_value()) {
        break;
      }
      step();
    }
    if (takeover_ && outcome_.ok() && !recovery_measured_) {
      // A takeover that never committed a fresh barrier (halt replay
      // only): the recovery interval ends when the run is done.
      recovery_measured_ = true;
      outcome_.shard.coordinator_recovery_seconds += now() - takeover_started_;
    }
    reap_everything();
    outcome_.result.seconds = now() - t0;
    if (outcome_.ok() && tcp_ctrl_ != nullptr &&
        !tcp_ctrl_->values_complete()) {
      // A worker halted without its values terminator landing: the board
      // would be silently stale. Typed failure instead.
      outcome_.error.emplace(RunErrorKind::kShardFailure,
                             static_cast<std::size_t>(barrier_superstep_), 0,
                             RunError::kNoVertex,
                             "final values incomplete: a shard halted "
                             "without delivering its kValues frames");
    }
    if (outcome_.ok() && out_values != nullptr) {
      out_values->resize(graph_.num_slots());
      const std::uint8_t* board = options_.transport == TransportKind::kTcp
                                      ? net_board_.data()
                                      : arena_view_->at(spec_.board_offset);
      if (!out_values->empty()) {  // an empty graph has no buffer to fill
        std::memcpy(out_values->data(), board,
                    graph_.num_slots() * sizeof(Value));
      }
    }
    return std::move(outcome_);
  }

 private:
  struct WorkerSlot {
    pid_t pid = -1;
    double last_seen = 0.0;
    std::size_t generation = 0;
    bool alive = false;
    /// Death detected, replacement not yet back at a barrier.
    bool recovering = false;
    double recovering_since = 0.0;
    /// Inherited from a dead incarnation via reattach: not our child, so
    /// deaths arrive over the orphan pipe and teardown must not waitpid.
    bool adopted = false;
    /// Resilient TCP halt: this worker's kValuesAck has been sent.
    bool values_acked = false;
  };

  struct BarrierEntry {
    std::uint64_t sent = 0;
    std::uint64_t active = 0;
    std::uint64_t executed = 0;
    std::uint32_t payload_len = 0;
    std::uint8_t payload[CtrlMsg::kMaxAggregate] = {};
  };

  struct Release {
    CtrlMsg::Command cmd = CtrlMsg::Command::kContinue;
    std::uint32_t payload_len = 0;
    std::uint8_t payload[CtrlMsg::kMaxAggregate] = {};
  };

  struct PendingAdopt {
    Channel chan;
    double deadline = 0.0;
  };

  /// commit_manifest fault_superstep value that matches no CoordFault.
  static constexpr std::uint64_t kNoFaultStep = ~0ULL;
  static constexpr std::uint64_t kValuesBlobMagic = 0x4C41562D52504900ULL;
  static constexpr std::uint32_t kValuesMetaTag = 1;
  static constexpr std::uint32_t kValuesBoardTag = 2;

  [[nodiscard]] static double now() noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void validate_options() const {
    if (part_.shards() == 0) {
      throw std::invalid_argument("run_sharded: num_shards must be >= 1");
    }
    if (options_.checkpoint.enabled() &&
        options_.checkpoint.vfs != nullptr) {
      throw std::invalid_argument(
          "run_sharded: shard snapshots must live on the real filesystem — "
          "an in-memory Vfs dies with the worker process it was meant to "
          "revive");
    }
    if constexpr (HasAggregator<Program>) {
      static_assert(HasSerializableAggregator<Program>,
                    "sharded aggregator programs need a trivially copyable "
                    "aggregate_type (it crosses a process boundary)");
      static_assert(sizeof(typename Program::aggregate_type) <=
                        CtrlMsg::kMaxAggregate,
                    "aggregate_type exceeds the control-plane payload");
    }
    if (options_.checkpoint.enabled() &&
        options_.checkpoint.mode == ft::CheckpointMode::kLightweight &&
        !ft::kLightweightCapable<Program>) {
      throw std::invalid_argument(
          "run_sharded: lightweight checkpoints need Program::resend(ctx) "
          "and cannot carry aggregator state (same rule as the "
          "single-process engine)");
    }
  }

  void build_arena() {
    spec_ = make_arena_spec(graph_, part_, options_);
    arena_ = std::make_unique<ShmArena>(spec_.total_bytes);
    arena_view_ = arena_.get();
    reinit_rings();
  }

  /// (Re)initialises every ring header in the arena. Run once at build
  /// time, and again between full-respawn negotiation rounds so no frame
  /// of a killed era can leak into the next one.
  void reinit_rings() {
    if (options_.transport == TransportKind::kTcp || arena_view_ == nullptr) {
      return;
    }
    const std::size_t n = part_.shards();
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (src != dst) {
          (void)spec_.attach(*arena_view_, src, dst, /*initialize=*/true);
        }
      }
    }
  }

  void spawn(std::size_t shard, std::size_t generation,
             std::uint64_t resume_cap = kNoResumeCap) {
    Channel worker_end;
    ctrl_->begin_incarnation(shard, generation, &worker_end);
    WorkerConfig<Program> cfg;
    cfg.graph = &graph_;
    cfg.program = &program_;
    cfg.options = &options_;
    cfg.spec = &spec_;
    cfg.arena = arena_view_;
    cfg.rendezvous = rendezvous_view_;
    cfg.me = shard;
    cfg.generation = generation;
    cfg.graph_fp = graph_fp_;
    cfg.coord_epoch = epoch_;
    cfg.resume_cap = resume_cap;
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("run_sharded: fork failed");
    }
    if (pid == 0) {
      // Child: drop every inherited coordinator-side fd (the worker talks
      // through its own plane only) and become the worker. worker_main
      // closes the inherited rendezvous listeners it does not own.
      ctrl_->close_inherited_in_child();
      if (orphan_fd_ >= 0) {
        ::close(orphan_fd_);
      }
      if (result_fd_ >= 0) {
        ::close(result_fd_);
      }
      if (reattach_ != nullptr) {
        // The listener must stay supervisor-owned; the worker connects to
        // its PATH, never through an inherited fd.
        ::close(reattach_->fd());
      }
      worker_main<Program>(cfg, std::move(worker_end));  // never returns
    }
    worker_end.close();
    WorkerSlot& slot = workers_[shard];
    const bool was_recovering = slot.recovering;
    const double since = slot.recovering_since;
    slot = WorkerSlot{};
    slot.pid = pid;
    slot.last_seen = now();
    slot.generation = generation;
    slot.alive = true;
    slot.recovering = was_recovering;
    slot.recovering_since = since;
    maybe_coord_fault(CoordFault::Phase::kSpawn, shard);
  }

  // --- recovery boot -------------------------------------------------------

  [[nodiscard]] bool identity_matches(const RunManifest& m) const {
    return m.graph_fingerprint == graph_fp_ &&
           m.options_digest == options_digest(options_) &&
           m.num_shards == part_.shards();
  }

  void boot_recovery() {
    io::Vfs& vfs = io::vfs_or_real(nullptr);
    try {
      if (!vfs.exists(options_.recovery.directory)) {
        vfs.mkdir(options_.recovery.directory);
      }
      std::optional<RunManifest> prior =
          manifest_dir_->load_newest(read_manifest);
      if (prior.has_value() && !identity_matches(*prior)) {
        outcome_.error.emplace(
            RunErrorKind::kSnapshotMismatch,
            static_cast<std::size_t>(barrier_superstep_), 0,
            RunError::kNoVertex,
            "recovery directory belongs to a different run (graph "
            "fingerprint / options digest / shard count mismatch)");
        return;
      }
      if (takeover_ && !prior.has_value()) {
        // The boot manifest is published BEFORE any worker is forked, so
        // an empty directory proves the dead coordinator never started
        // anything: run fresh (under a bumped epoch, out of caution).
        takeover_ = false;
      }
      if (takeover_) {
        restore_from(*prior);
        const bool stale =
            options_.recovery.stale_epoch_at_takeover != 0 &&
            options_.recovery.stale_epoch_at_takeover == takeover_index_;
        if (stale) {
          // TEST HOOK — a resurrected first incarnation: present epoch 1
          // and claim nothing durable. Workers that obeyed a newer epoch
          // must fence us.
          epoch_ = 1;
        } else {
          epoch_ = prior->epoch + 1;
          // The fence claim: durable before acting, so any FURTHER
          // takeover sees this epoch and claims above it.
          commit_manifest(barrier_superstep_, halting_, kNoFaultStep);
        }
      } else {
        epoch_ = (prior.has_value() ? prior->epoch : 0) + 1 + takeover_index_;
        commit_seq_ = prior.has_value() ? prior->commit_seq : 0;
        // Write-ahead boot publish: identity + epoch are durable before
        // any worker exists.
        commit_manifest(barrier_superstep_, halting_, kNoFaultStep);
      }
    } catch (const io::PowerLoss&) {
      throw;  // the resilient child wrapper maps this to the power-cut exit
    } catch (const io::IoError& e) {
      outcome_.error.emplace(RunErrorKind::kShardFailure,
                             static_cast<std::size_t>(barrier_superstep_), 0,
                             RunError::kNoVertex,
                             std::string("recovery bootstrap failed: ") +
                                 e.what());
      return;
    }
    if (tcp_ctrl_ != nullptr) {
      tcp_ctrl_->set_epoch(epoch_);
    }
  }

  void restore_from(const RunManifest& m) {
    commit_seq_ = m.commit_seq;
    barrier_superstep_ = m.barrier_superstep;
    halting_ = m.halting;
    outcome_.result.supersteps = static_cast<std::size_t>(m.supersteps);
    outcome_.result.total_messages = m.total_messages;
    outcome_.result.total_executed_vertices = m.total_executed;
    outcome_.result.reached_superstep_cap = m.reached_cap;
    outcome_.shard.respawns = static_cast<std::size_t>(m.respawns);
    outcome_.shard.snapshot_recoveries =
        static_cast<std::size_t>(m.snapshot_recoveries);
    outcome_.shard.heartbeat_kills =
        static_cast<std::size_t>(m.heartbeat_kills);
    outcome_.shard.coordinator_takeovers =
        static_cast<std::size_t>(m.coordinator_takeovers) + 1;
    outcome_.shard.adopted_workers =
        static_cast<std::size_t>(m.adopted_workers);
    outcome_.shard.recovery_seconds = m.recovery_seconds;
    outcome_.shard.coordinator_recovery_seconds =
        m.coordinator_recovery_seconds;
    history_.clear();
    for (const ManifestRelease& rel : m.history) {
      Release r;
      r.cmd = static_cast<CtrlMsg::Command>(rel.command);
      r.payload_len = static_cast<std::uint32_t>(rel.aggregate.size());
      if (!rel.aggregate.empty()) {
        std::memcpy(r.payload, rel.aggregate.data(), rel.aggregate.size());
      }
      history_[rel.superstep] = r;
    }
    const std::size_t n =
        std::min<std::size_t>(m.generations.size(), part_.shards());
    for (std::size_t shard = 0; shard < n; ++shard) {
      supervisor_.seed_generation(
          shard, static_cast<std::size_t>(m.generations[shard]));
    }
  }

  void begin_takeover() {
    takeover_started_ = now();
    reattach_deadline_ = now() + options_.recovery.reattach_wait_seconds;
    takeover_pending_ = true;
    full_respawn_ = !options_.recovery.prefer_reattach && !halting_;
    if (halting_ && tcp_ctrl_ != nullptr) {
      // The dead coordinator may already have made the values durable —
      // then the workers that exited after its ack are not needed again.
      try_load_values_blob();
    }
    // From here the step() loop does the work: poll_reattach() adopts
    // parked shm survivors, TCP survivors reconnect into the shared ctrl
    // listener on their own (synthetic kAdopt events), and
    // takeover_progress() resolves the deadline.
  }

  /// The manifest commit — the durability point of a barrier. MUST run
  /// before any proceed of that barrier is sent (write-ahead ordering).
  /// `fault_superstep` indexes kManifestPublish/kPowerCut faults; boot
  /// and fence publishes pass kNoFaultStep (not a targetable commit).
  void commit_manifest(std::uint64_t next_barrier, bool halting,
                       std::uint64_t fault_superstep) {
    RunManifest m;
    m.graph_fingerprint = graph_fp_;
    m.options_digest = options_digest(options_);
    m.num_shards = part_.shards();
    m.partition = static_cast<std::uint8_t>(options_.partition);
    m.transport = static_cast<std::uint8_t>(options_.transport);
    m.epoch = epoch_;
    m.commit_seq = ++commit_seq_;
    m.barrier_superstep = next_barrier;
    m.halting = halting;
    m.supersteps = outcome_.result.supersteps;
    m.total_messages = outcome_.result.total_messages;
    m.total_executed = outcome_.result.total_executed_vertices;
    m.reached_cap = outcome_.result.reached_superstep_cap;
    m.respawns = outcome_.shard.respawns;
    m.snapshot_recoveries = outcome_.shard.snapshot_recoveries;
    m.heartbeat_kills = outcome_.shard.heartbeat_kills;
    m.coordinator_takeovers = outcome_.shard.coordinator_takeovers;
    m.adopted_workers = outcome_.shard.adopted_workers;
    m.recovery_seconds = outcome_.shard.recovery_seconds;
    m.coordinator_recovery_seconds =
        outcome_.shard.coordinator_recovery_seconds;
    m.generations.resize(part_.shards());
    for (std::size_t shard = 0; shard < part_.shards(); ++shard) {
      m.generations[shard] = std::max<std::uint64_t>(
          workers_[shard].generation, supervisor_.generation(shard));
    }
    for (const auto& [superstep, rel] : history_) {
      ManifestRelease mr;
      mr.superstep = superstep;
      mr.command = static_cast<std::uint64_t>(rel.cmd);
      mr.aggregate.assign(rel.payload, rel.payload + rel.payload_len);
      m.history.push_back(std::move(mr));
    }
    if (fault_superstep != kNoFaultStep) {
      for (const CoordFault& f : options_.coord_faults) {
        if (f.kind == CoordFault::Kind::kPowerCut &&
            f.phase == CoordFault::Phase::kManifestPublish &&
            f.superstep == fault_superstep && f.epoch == epoch_) {
          // Publish through a counting write-cut: the Nth mutating
          // syscall throws PowerLoss and the resilient child wrapper
          // dies, leaving whatever torn bytes the REAL filesystem holds.
          io::WriteCutVfs cut(io::vfs_or_real(nullptr), f.at_syscall,
                              "manifest.");
          ft::RecoveryDirectory dir = manifest_directory(
              options_.recovery.directory, &cut, kKeepManifests);
          publish_manifest(dir, m);
          return;
        }
      }
    }
    publish_manifest(*manifest_dir_, m);
  }

  /// Scripted coordinator death (kSigkill). Power cuts are handled inside
  /// commit_manifest, where the counted syscalls live.
  void maybe_coord_fault(CoordFault::Phase phase, std::uint64_t superstep) {
    if (!resilient_) {
      return;
    }
    for (const CoordFault& f : options_.coord_faults) {
      if (f.kind == CoordFault::Kind::kSigkill && f.phase == phase &&
          f.epoch == epoch_ &&
          (phase == CoordFault::Phase::kRecover || f.superstep == superstep)) {
        ::kill(::getpid(), SIGKILL);
      }
    }
  }

  // --- the poll loop -------------------------------------------------------

  /// One poll-loop iteration: guards, takeover progress, messages,
  /// deaths, watchdogs, due respawns.
  void step() {
    if (options_.guards.cancel_token != nullptr &&
        options_.guards.cancel_token->load(std::memory_order_relaxed)) {
      abort_run(RunErrorKind::kCancelled, "cancel token raised");
      return;
    }
    if (options_.guards.run_seconds > 0.0 &&
        now() - start_ > options_.guards.run_seconds) {
      abort_run(RunErrorKind::kRunTimeout,
                "sharded run exceeded guards.run_seconds");
      return;
    }
    if (takeover_pending_) {
      takeover_progress();
      if (outcome_.error.has_value()) {
        return;
      }
    }
    poll_reattach();
    poll_pending_adopts();
    if (outcome_.error.has_value()) {
      return;
    }

    // Wait up to 10ms for the first event, then drain the rest dry.
    int timeout_ms = 10;
    while (const auto event = ctrl_->next(timeout_ms)) {
      timeout_ms = 0;
      const std::size_t shard = event->shard;
      if (shard >= workers_.size()) {
        continue;
      }
      if (event->msg.kind == CtrlMsg::Kind::kFenced) {
        handle_fenced(event->msg);
        return;
      }
      if (event->msg.kind == CtrlMsg::Kind::kAdopt) {
        // Synthetic TCP plane event: a worker's ctrl link (re)handshook.
        handle_adopt_event(shard, event->msg);
        continue;
      }
      if (!workers_[shard].alive) {
        continue;  // stale message from a reaped incarnation
      }
      workers_[shard].last_seen = now();
      switch (event->msg.kind) {
        case CtrlMsg::Kind::kHello:
          handle_hello(shard, event->msg);
          break;
        case CtrlMsg::Kind::kHeartbeat:
          break;
        case CtrlMsg::Kind::kBarrier:
          handle_barrier(shard, event->msg);
          break;
        default:
          break;  // workers do not send coordinator->worker kinds
      }
      if (outcome_.error.has_value()) {
        return;
      }
    }

    reap_dead();
    check_heartbeats();
    start_due_respawns();
    maybe_finish_values();
    maybe_takeover_done();
  }

  // --- takeover machinery --------------------------------------------------

  void takeover_progress() {
    if (full_respawn_) {
      if (now() < reattach_deadline_) {
        return;  // drain window: poll_reattach aborts the old era
      }
      takeover_pending_ = false;
      full_respawn_negotiate();
      return;
    }
    bool all = true;
    for (const WorkerSlot& w : workers_) {
      if (!w.alive) {
        all = false;
        break;
      }
    }
    if (all) {
      takeover_pending_ = false;
      return;
    }
    if (now() < reattach_deadline_) {
      return;
    }
    takeover_pending_ = false;
    if (halting_) {
      return;  // nothing to recompute; maybe_takeover_done tears down
    }
    for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
      if (!workers_[shard].alive) {
        plan_respawn(shard,
                     "worker never re-attached after coordinator takeover");
        if (outcome_.error.has_value()) {
          return;
        }
        maybe_coord_fault(CoordFault::Phase::kRecover, barrier_superstep_);
      }
    }
  }

  /// shm reattach rendezvous: accept parked workers, greet each with
  /// kAdopt{epoch, committed barrier}, and park the connection until its
  /// adoption hello (or kFenced) arrives.
  void poll_reattach() {
    if (reattach_ == nullptr || !reattach_->valid()) {
      return;
    }
    while (auto conn = reattach_->accept()) {
      if (full_respawn_) {
        // Full-respawn takeover: the old era is abandoned, not adopted —
        // for the REST of this incarnation, not just the drain window. A
        // survivor that parks late must never be re-armed next to the
        // freshly respawned worker that now owns its shard's rings.
        CtrlMsg abort_msg;
        abort_msg.kind = CtrlMsg::Kind::kAbort;
        abort_msg.epoch = epoch_;
        (void)conn->send(abort_msg);
        continue;
      }
      CtrlMsg greet;
      greet.kind = CtrlMsg::Kind::kAdopt;
      greet.superstep = barrier_superstep_;
      greet.epoch = epoch_;
      if (!conn->send(greet)) {
        continue;
      }
      PendingAdopt pending;
      pending.chan = std::move(*conn);
      pending.deadline = now() + 2.0;
      pending_adopts_.push_back(std::move(pending));
    }
  }

  void poll_pending_adopts() {
    const double t = now();
    for (auto it = pending_adopts_.begin(); it != pending_adopts_.end();) {
      std::optional<CtrlMsg> msg = it->chan.recv(0);
      if (msg.has_value()) {
        if (msg->kind == CtrlMsg::Kind::kFenced) {
          handle_fenced(*msg);
          return;
        }
        if (msg->kind == CtrlMsg::Kind::kHello && msg->active == 1 &&
            msg->shard < workers_.size() && !workers_[msg->shard].alive) {
          register_adoption(msg->shard, *msg, std::move(it->chan));
        }
        it = pending_adopts_.erase(it);
        continue;
      }
      if (it->chan.peer_dead() || t > it->deadline) {
        it = pending_adopts_.erase(it);
        continue;
      }
      ++it;
    }
  }

  void register_adoption(std::size_t shard, const CtrlMsg& hello,
                         Channel chan) {
    ctrl_->adopt(shard, std::move(chan));
    WorkerSlot& slot = workers_[shard];
    slot = WorkerSlot{};
    slot.pid = static_cast<pid_t>(hello.sent);
    slot.generation = static_cast<std::size_t>(hello.flag);
    slot.alive = true;
    slot.adopted = true;
    slot.last_seen = now();
    supervisor_.seed_generation(shard, slot.generation);
    ++outcome_.shard.adopted_workers;
    // The worker re-sends its pending barrier right after this hello; the
    // plane delivers it on the next poll and history replays the release.
    maybe_coord_fault(CoordFault::Phase::kRecover, barrier_superstep_);
  }

  /// TCP control link (re)established for `shard` — synthetic plane
  /// event carrying the worker's generation (flag), pid (sent) and
  /// last-obeyed epoch.
  void handle_adopt_event(std::size_t shard, const CtrlMsg& msg) {
    WorkerSlot& slot = workers_[shard];
    if (slot.alive) {
      slot.last_seen = now();  // routine reconnect of a known incarnation
      return;
    }
    if (!takeover_) {
      return;  // unknown incarnation outside a takeover: not ours
    }
    if (full_respawn_) {
      // Old-era survivors are never adopted by a full-respawn takeover,
      // even after the drain window closed.
      CtrlMsg abort_msg;
      abort_msg.kind = CtrlMsg::Kind::kAbort;
      abort_msg.epoch = epoch_;
      (void)ctrl_->send(shard, abort_msg);
      return;
    }
    slot = WorkerSlot{};
    slot.pid = static_cast<pid_t>(msg.sent);
    slot.generation = static_cast<std::size_t>(msg.flag);
    slot.alive = true;
    slot.adopted = true;
    slot.last_seen = now();
    supervisor_.seed_generation(shard, slot.generation);
    ++outcome_.shard.adopted_workers;
    if (halting_ && tcp_ctrl_ != nullptr && values_durable_) {
      // This worker may be holding values we already have durably.
      CtrlMsg ack;
      ack.kind = CtrlMsg::Kind::kValuesAck;
      ack.epoch = epoch_;
      if (ctrl_->send(shard, ack)) {
        slot.values_acked = true;
      }
    }
    maybe_coord_fault(CoordFault::Phase::kRecover, barrier_superstep_);
  }

  /// Full-respawn takeover: the old era was drained; rebuild the entire
  /// worker set from durable state at a consistent cut. Rounds propose a
  /// cut, spawn everyone with resume_cap = cut, and lower the cut to the
  /// minimum achieved resume until every shard lands exactly on it
  /// (monotone decreasing, converges to 0 = restart).
  void full_respawn_negotiate() {
    reinit_rings();
    entries_.assign(workers_.size(), std::nullopt);
    std::uint64_t cut = barrier_superstep_;
    std::size_t failed_rounds = 0;
    std::vector<CtrlPlane::Event> stashed;
    for (std::size_t round = 0;; ++round) {
      for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
        const std::size_t gen = supervisor_.generation(shard) + 1;
        supervisor_.seed_generation(shard, gen);
        // Every negotiation spawn is a worker respawned from durable
        // state — account it like the supervisor ladder does.
        ++outcome_.shard.respawns;
        spawn(shard, gen, cut);
        if (round == 0 && shard == 0) {
          maybe_coord_fault(CoordFault::Phase::kRecover, barrier_superstep_);
        }
      }
      std::vector<std::optional<std::uint64_t>> achieved(workers_.size());
      std::size_t have = 0;
      stashed.clear();
      const double deadline =
          now() + std::max(options_.recovery.reattach_wait_seconds, 2.0) + 8.0;
      while (have < workers_.size() && now() < deadline) {
        if (options_.guards.run_seconds > 0.0 &&
            now() - start_ > options_.guards.run_seconds) {
          kill_round();
          abort_run(RunErrorKind::kRunTimeout,
                    "sharded run exceeded guards.run_seconds during cut "
                    "negotiation");
          return;
        }
        const auto event = ctrl_->next(10);
        if (!event.has_value()) {
          continue;
        }
        const std::size_t shard = event->shard;
        if (shard >= workers_.size()) {
          continue;
        }
        switch (event->msg.kind) {
          case CtrlMsg::Kind::kHello:
            if (event->msg.active == 2 && !achieved[shard].has_value()) {
              achieved[shard] = event->msg.superstep;
              ++have;
              workers_[shard].last_seen = now();
            }
            break;
          case CtrlMsg::Kind::kHeartbeat:
            workers_[shard].last_seen = now();
            break;
          case CtrlMsg::Kind::kBarrier:
            // A worker that matched the cut is already running; its
            // barrier belongs to the accepted era — replay it only if
            // this round succeeds.
            stashed.push_back(*event);
            break;
          case CtrlMsg::Kind::kFenced:
            handle_fenced(event->msg);
            return;
          default:
            break;  // kAdopt echoes of the fresh links, etc.
        }
      }
      if (have < workers_.size()) {
        kill_round();
        if (++failed_rounds > 3) {
          abort_run(RunErrorKind::kShardFailure,
                    "full-respawn cut negotiation stalled: a shard "
                    "repeatedly failed to report an achieved resume point");
          return;
        }
        continue;
      }
      std::uint64_t min_achieved = cut;
      for (const auto& a : achieved) {
        min_achieved = std::min(min_achieved, *a);
      }
      if (min_achieved == cut) {
        for (const CtrlPlane::Event& ev : stashed) {
          workers_[ev.shard].last_seen = now();
          handle_barrier(ev.shard, ev.msg);
          if (outcome_.error.has_value()) {
            return;
          }
        }
        return;  // era accepted; the main loop continues the run
      }
      cut = min_achieved;
      kill_round();
    }
  }

  void kill_round() {
    for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
      WorkerSlot& w = workers_[shard];
      if (!w.alive || w.adopted) {
        continue;
      }
      ::kill(w.pid, SIGKILL);
      int status = 0;
      (void)::waitpid(w.pid, &status, 0);
      w.alive = false;
      ctrl_->drop(shard, false);
    }
    entries_.assign(workers_.size(), std::nullopt);
    reinit_rings();
  }

  /// Halting takeover teardown rule: once the reattach window closed, no
  /// worker is left alive, and the values are trustworthy, the run is
  /// complete — workers that exited against the DEAD coordinator never
  /// report here, so the exited_ count alone cannot close a takeover.
  void maybe_takeover_done() {
    if (!takeover_ || !halting_ || done_) {
      return;
    }
    if (now() < reattach_deadline_) {
      return;
    }
    for (const WorkerSlot& w : workers_) {
      if (w.alive) {
        return;
      }
    }
    if (tcp_ctrl_ != nullptr && !tcp_ctrl_->values_complete()) {
      return;  // still waiting on value resends (bounded by run guards)
    }
    done_ = true;
  }

  // --- resilient TCP values durability -------------------------------------

  [[nodiscard]] std::string values_path() const {
    return options_.recovery.directory + "/values.bin";
  }

  void write_values_blob() {
    io::Vfs& vfs = io::vfs_or_real(nullptr);
    io::AtomicFile file(vfs, values_path());
    ft::BinaryWriter writer(file.stream(), kValuesBlobMagic, 1);
    ft::FieldWriter meta;
    meta.u64(graph_fp_);
    meta.u64(net_board_.size());
    writer.section(kValuesMetaTag, meta.bytes().data(), meta.bytes().size());
    writer.section(kValuesBoardTag, net_board_.data(), net_board_.size());
    writer.finish();
    file.commit();
  }

  void try_load_values_blob() {
    try {
      io::Vfs& vfs = io::vfs_or_real(nullptr);
      io::VfsIStream in(vfs, values_path());
      ft::BinaryReader reader(in.stream(), values_path(), kValuesBlobMagic, 1,
                              1);
      const std::vector<std::uint8_t> meta_bytes =
          reader.expect_section(kValuesMetaTag);
      ft::FieldReader meta(meta_bytes, values_path() + " meta");
      const std::uint64_t fp = meta.u64();
      const std::uint64_t size = meta.u64();
      meta.done();
      const std::vector<std::uint8_t> board =
          reader.expect_section(kValuesBoardTag);
      if (fp != graph_fp_ || size != net_board_.size() ||
          board.size() != net_board_.size()) {
        return;
      }
      std::memcpy(net_board_.data(), board.data(), board.size());
      values_durable_ = true;
      if (tcp_ctrl_ != nullptr) {
        tcp_ctrl_->mark_values_done_all();
      }
    } catch (...) {
      // No durable values (or unreadable): the workers still holding
      // theirs will re-deliver after adoption.
    }
  }

  /// Resilient TCP halt: once every shard's values landed, make them
  /// durable FIRST, then ack — a crash between the two re-acks after
  /// reload, never loses. Un-acked workers hold and re-deliver.
  void maybe_finish_values() {
    if (tcp_ctrl_ == nullptr || !halting_ || !options_.recovery.enabled()) {
      return;
    }
    if (!tcp_ctrl_->values_complete()) {
      return;
    }
    if (!values_durable_) {
      try {
        write_values_blob();
      } catch (const io::PowerLoss&) {
        throw;
      } catch (const io::IoError& e) {
        abort_run(RunErrorKind::kShardFailure,
                  std::string("could not make final values durable: ") +
                      e.what());
        return;
      }
      values_durable_ = true;
    }
    for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
      WorkerSlot& w = workers_[shard];
      if (w.alive && !w.values_acked) {
        CtrlMsg ack;
        ack.kind = CtrlMsg::Kind::kValuesAck;
        ack.epoch = epoch_;
        if (ctrl_->send(shard, ack)) {
          w.values_acked = true;
        }
      }
    }
  }

  // --- protocol handlers ---------------------------------------------------

  void handle_fenced(const CtrlMsg& msg) {
    // A worker has obeyed a newer epoch: this incarnation is STALE. Stand
    // down typed, without killing anything — the run belongs to the
    // rightful owner.
    fenced_ = true;
    ++outcome_.shard.coordinator_fenced;
    outcome_.error.emplace(
        RunErrorKind::kCoordinatorFenced,
        static_cast<std::size_t>(barrier_superstep_), 0, RunError::kNoVertex,
        "coordinator fenced: shard " + std::to_string(msg.shard) +
            " has obeyed epoch " + std::to_string(msg.epoch) +
            ", newer than this incarnation's claimed epoch " +
            std::to_string(msg.flag) + " — standing down");
  }

  void handle_hello(std::size_t shard, const CtrlMsg& msg) {
    if (msg.active != 0) {
      // Adoption (1) carries a LIVE worker that needs no reconciliation;
      // negotiation hellos (2) are consumed by full_respawn_negotiate.
      return;
    }
    if (msg.flag == 0) {
      return;  // initial incarnation, nothing to reconcile
    }
    const std::uint64_t resume = msg.superstep;
    if (resume > 0) {
      ++outcome_.shard.snapshot_recoveries;
    }
    if (resume > barrier_superstep_) {
      abort_run(RunErrorKind::kShardFailure,
                "shard " + std::to_string(shard) +
                    " resumed AHEAD of the barrier (superstep " +
                    std::to_string(resume) + " > " +
                    std::to_string(barrier_superstep_) +
                    ") — stale snapshots from a different run?");
      return;
    }
    // The deepest frames the rebuild needs: resume - 1 for a lightweight
    // inbox reconstruction, resume itself otherwise.
    const bool lw = options_.checkpoint.mode ==
                    ft::CheckpointMode::kLightweight;
    const std::uint64_t oldest =
        (lw && resume > 0) ? resume - 1 : resume;
    if (oldest + options_.retain_supersteps <= barrier_superstep_) {
      abort_run(
          RunErrorKind::kShardFailure,
          "shard " + std::to_string(shard) + " resumed at superstep " +
              std::to_string(resume) +
              ", beyond the survivors' retained frame window (barrier at " +
              std::to_string(barrier_superstep_) + ", retain " +
              std::to_string(options_.retain_supersteps) + ")");
      return;
    }
    CtrlMsg recover;
    recover.kind = CtrlMsg::Kind::kRecover;
    recover.shard = static_cast<std::uint32_t>(shard);
    recover.superstep = resume;
    recover.epoch = epoch_;
    for (std::size_t peer = 0; peer < workers_.size(); ++peer) {
      if (peer != shard && workers_[peer].alive) {
        (void)ctrl_->send(peer, recover);
      }
    }
  }

  void handle_barrier(std::size_t shard, const CtrlMsg& msg) {
    WorkerSlot& w = workers_[shard];
    if (w.recovering) {
      w.recovering = false;
      outcome_.shard.recovery_seconds += now() - w.recovering_since;
    }
    if (msg.superstep < barrier_superstep_) {
      // A redo of an already-released superstep: replay the recorded
      // decision to this worker alone. The counts were folded the first
      // time; deterministic redo reproduces them exactly. (TCP reconnects
      // also land here: the worker requeues its last barrier after a
      // control-link loss, and the replayed release is idempotent.)
      const auto it = history_.find(msg.superstep);
      if (it != history_.end()) {
        send_proceed(shard, msg.superstep, it->second);
      }
      return;
    }
    if (msg.superstep > barrier_superstep_) {
      return;  // impossible by protocol; drop rather than corrupt state
    }
    maybe_coord_fault(CoordFault::Phase::kBarrierCollect, msg.superstep);
    BarrierEntry entry;
    entry.sent = msg.sent;
    entry.active = msg.active;
    entry.executed = msg.executed;
    entry.payload_len = msg.payload_len;
    std::memcpy(entry.payload, msg.payload, sizeof(entry.payload));
    entries_[shard] = entry;
    for (const auto& e : entries_) {
      if (!e.has_value()) {
        return;
      }
    }
    release_barrier();
  }

  void release_barrier() {
    std::uint64_t sent = 0;
    std::uint64_t active = 0;
    std::uint64_t executed = 0;
    Release rel;
    if constexpr (HasSerializableAggregator<Program>) {
      auto agg = Program::aggregate_identity();
      // Deterministic shard-order fold — the cross-process analogue of
      // the engine's in-thread-order aggregate reduce.
      for (const auto& e : entries_) {
        Program::aggregate(
            agg, aggregate_from_bytes<Program>(
                     std::span<const std::uint8_t>(e->payload,
                                                   e->payload_len)));
      }
      const auto bytes = aggregate_to_bytes<Program>(agg);
      rel.payload_len = static_cast<std::uint32_t>(bytes.size());
      std::memcpy(rel.payload, bytes.data(), bytes.size());
    }
    for (const auto& e : entries_) {
      sent += e->sent;
      active += e->active;
      executed += e->executed;
    }
    outcome_.result.total_messages += sent;
    outcome_.result.total_executed_vertices += executed;
    outcome_.result.supersteps =
        static_cast<std::size_t>(barrier_superstep_) + 1;

    const bool cap =
        barrier_superstep_ + 1 >= options_.max_supersteps;
    const bool converged = sent == 0 && active == 0;
    rel.cmd = (converged || cap) ? CtrlMsg::Command::kHalt
                                 : CtrlMsg::Command::kContinue;
    outcome_.result.reached_superstep_cap = cap && !converged;
    const bool halt = rel.cmd == CtrlMsg::Command::kHalt;

    history_[barrier_superstep_] = rel;
    while (history_.size() > history_keep_) {
      history_.erase(history_.begin());
    }
    if (options_.recovery.enabled()) {
      // WRITE-AHEAD: the release is durable before anyone hears it. Death
      // before this line = the barrier never happened (workers re-send it
      // and the deterministic re-fold is identical); death after = replay
      // from history. Counters fold exactly once either way.
      maybe_coord_fault(CoordFault::Phase::kManifestPublish,
                        barrier_superstep_);
      try {
        commit_manifest(barrier_superstep_ + 1, halt, barrier_superstep_);
      } catch (const io::PowerLoss&) {
        throw;  // resilient child wrapper: power-cut exit
      } catch (const io::IoError& e) {
        abort_run(RunErrorKind::kShardFailure,
                  std::string("manifest publish failed: ") + e.what());
        return;
      }
      if (takeover_ && !recovery_measured_) {
        // Resume-to-first-fresh-barrier: the headline recovery latency.
        recovery_measured_ = true;
        outcome_.shard.coordinator_recovery_seconds +=
            now() - takeover_started_;
      }
    }
    bool first_delivery = true;
    for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
      if (workers_[shard].alive) {
        send_proceed(shard, barrier_superstep_, rel);
        if (first_delivery) {
          first_delivery = false;
          maybe_coord_fault(CoordFault::Phase::kProceed, barrier_superstep_);
        }
      }
    }
    if (halt) {
      halting_ = true;
    }
    ++barrier_superstep_;
    entries_.assign(workers_.size(), std::nullopt);
  }

  void send_proceed(std::size_t shard, std::uint64_t superstep,
                    const Release& rel) {
    CtrlMsg msg;
    msg.kind = CtrlMsg::Kind::kProceed;
    msg.superstep = superstep;
    msg.flag = static_cast<std::uint64_t>(rel.cmd);
    msg.payload_len = rel.payload_len;
    msg.epoch = epoch_;
    std::memcpy(msg.payload, rel.payload, sizeof(msg.payload));
    (void)ctrl_->send(shard, msg);
  }

  // --- liveness ------------------------------------------------------------

  void handle_death(pid_t pid, int status) {
    for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
      WorkerSlot& w = workers_[shard];
      if (w.alive && w.pid == pid) {
        w.alive = false;
        // Halt path drains in-flight kValues frames before closing.
        ctrl_->drop(shard, halting_);
        const bool clean = WIFEXITED(status) &&
                           WEXITSTATUS(status) == kWorkerExitHalt;
        const bool unreachable =
            WIFEXITED(status) &&
            WEXITSTATUS(status) == kWorkerExitUnreachable;
        if (halting_) {
          if (++exited_ == workers_.size()) {
            done_ = true;
          }
        } else {
          // Retract any barrier entry the dead incarnation posted: the
          // barrier — and in particular a halt decision — must wait for
          // the respawn's fresh re-entry, so survivors are still alive
          // (and replaying frames) for the whole redo. A clean exit
          // outside the halt drain is equally a failure: the worker saw
          // a halt this coordinator never issued.
          entries_[shard].reset();
          plan_respawn(shard, clean       ? "worker exited unexpectedly"
                              : unreachable
                                  ? "worker lost a peer link "
                                    "(reconnect budget exhausted)"
                                  : "worker died");
        }
        return;
      }
    }
  }

  void reap_dead() {
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) {
        break;
      }
      handle_death(pid, status);
    }
    drain_orphan_notifications();
  }

  /// Deaths of ADOPTED workers (children of a dead incarnation) arrive
  /// from the supervisor over the orphan pipe — waitpid cannot see them.
  void drain_orphan_notifications() {
    if (orphan_fd_ < 0) {
      return;
    }
    CoordOrphanDeath rec;
    for (;;) {
      const ssize_t n = ::read(orphan_fd_, &rec, sizeof(rec));
      if (n != static_cast<ssize_t>(sizeof(rec))) {
        return;  // EAGAIN / EOF / partial-never (records are atomic)
      }
      handle_death(static_cast<pid_t>(rec.pid), rec.status);
    }
  }

  void plan_respawn(std::size_t shard, const std::string& why) {
    WorkerSlot& w = workers_[shard];
    if (!w.recovering) {
      w.recovering = true;
      w.recovering_since = now();
    }
    const auto backoff = supervisor_.plan_respawn(shard);
    if (!backoff.has_value()) {
      abort_run(RunErrorKind::kShardFailure,
                why + ": shard " + std::to_string(shard) +
                    " exhausted its respawn budget (" +
                    std::to_string(supervisor_.generation(shard)) +
                    " respawns, " +
                    std::to_string(supervisor_.total_respawns()) + " total)");
      return;
    }
    ++outcome_.shard.respawns;
    respawn_at_[shard] = now() + *backoff;
  }

  void start_due_respawns() {
    const double t = now();
    for (auto it = respawn_at_.begin(); it != respawn_at_.end();) {
      if (it->second <= t) {
        const std::size_t shard = it->first;
        it = respawn_at_.erase(it);
        spawn(shard, supervisor_.generation(shard));
      } else {
        ++it;
      }
    }
  }

  void check_heartbeats() {
    const double timeout =
        options_.hang_timeout_seconds > 0.0
            ? options_.hang_timeout_seconds
            : (options_.guards.superstep_seconds > 0.0
                   ? options_.guards.superstep_seconds
                   : 30.0);
    const double t = now();
    for (WorkerSlot& w : workers_) {
      if (w.alive && t - w.last_seen > timeout) {
        // A worker that stopped heartbeating stopped progressing —
        // heartbeats are sent from inside the compute/drain loops (and a
        // stalled TCP control link drops them, which is the point). Kill
        // it and let the reaper route it into the respawn path.
        ++outcome_.shard.heartbeat_kills;
        ::kill(w.pid, SIGKILL);
        w.last_seen = t;  // one kill per missed deadline
      }
    }
  }

  void abort_run(RunErrorKind kind, const std::string& detail) {
    CtrlMsg abort_msg;
    abort_msg.kind = CtrlMsg::Kind::kAbort;
    abort_msg.epoch = epoch_;
    for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
      if (workers_[shard].alive) {
        (void)ctrl_->send(shard, abort_msg);
      }
    }
    outcome_.error.emplace(kind,
                           static_cast<std::size_t>(barrier_superstep_), 0,
                           RunError::kNoVertex, detail);
  }

  /// Terminal cleanup: whatever state the run ended in, no child
  /// processes survive this coordinator. Adopted workers are killed but
  /// never waitpid'ed (the supervisor reaps them); a FENCED coordinator
  /// touches nothing — the run belongs to a newer incarnation.
  void reap_everything() {
    if (fenced_) {
      return;
    }
    const double deadline = now() + 1.0;
    for (;;) {
      bool any_alive = false;
      for (std::size_t shard = 0; shard < workers_.size(); ++shard) {
        WorkerSlot& w = workers_[shard];
        if (!w.alive) {
          continue;
        }
        if (w.adopted) {
          ::kill(w.pid, SIGKILL);
          w.alive = false;
          ctrl_->drop(shard, halting_);
          continue;
        }
        int status = 0;
        const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid || r < 0) {
          w.alive = false;
          ctrl_->drop(shard, halting_);
        } else {
          any_alive = true;
          if (now() > deadline) {
            ::kill(w.pid, SIGKILL);
          }
        }
      }
      if (!any_alive) {
        return;
      }
      ::usleep(2000);
    }
  }

  const graph::CsrGraph& graph_;
  Program program_;
  ShardOptions options_;
  ShardPartition part_;
  ShardSupervisor supervisor_;
  std::uint64_t graph_fp_ = 0;

  ArenaSpec spec_;
  std::unique_ptr<ShmArena> arena_;         ///< owned (plain runs)
  const ShmArena* arena_view_ = nullptr;    ///< owned or supervisor's
  std::unique_ptr<TcpRendezvous> rendezvous_;  ///< owned (plain runs)
  TcpRendezvous* rendezvous_view_ = nullptr;
  std::unique_ptr<CtrlPlane> ctrl_;
  TcpCtrlPlane* tcp_ctrl_ = nullptr;  ///< non-owning view, kTcp only
  std::vector<std::uint8_t> net_board_;
  std::vector<WorkerSlot> workers_;

  std::uint64_t barrier_superstep_ = 0;
  std::vector<std::optional<BarrierEntry>> entries_;
  std::map<std::uint64_t, Release> history_;
  std::map<std::size_t, double> respawn_at_;
  std::size_t history_keep_ = 0;

  // Coordinator-recovery state.
  bool resilient_ = false;
  bool takeover_ = false;
  std::size_t takeover_index_ = 0;
  Channel* reattach_ = nullptr;  ///< supervisor-owned listener, kShm only
  int orphan_fd_ = -1;
  int result_fd_ = -1;
  /// Manifest files retained in the run directory (a takeover needs at
  /// least the newest commit).
  static constexpr std::size_t kKeepManifests = 4;
  std::optional<ft::RecoveryDirectory> manifest_dir_;
  std::uint64_t epoch_ = 0;
  std::uint64_t commit_seq_ = 0;
  bool takeover_pending_ = false;
  bool full_respawn_ = false;
  bool fenced_ = false;
  bool values_durable_ = false;
  bool recovery_measured_ = false;
  double takeover_started_ = 0.0;
  double reattach_deadline_ = 0.0;
  std::vector<PendingAdopt> pending_adopts_;

  bool halting_ = false;
  std::size_t exited_ = 0;
  bool done_ = false;
  double start_ = now();
  ShardOutcome outcome_;
};

/// Entry point of the sharded execution mode: runs `program` over `graph`
/// across options.num_shards worker processes and returns the fused
/// outcome. On success `out_values` (when non-null) receives the final
/// per-slot vertex values, byte-identical to what Engine::values() holds
/// for the populated range under the same deterministic schedule.
/// RecoveryOptions and CoordFaults are IGNORED here — coordinator
/// recovery needs the run_sharded_resilient supervision tree.
template <VertexProgram Program>
[[nodiscard]] ShardOutcome run_sharded(
    const graph::CsrGraph& graph, Program program, const ShardOptions& options,
    std::vector<typename Program::value_type>* out_values = nullptr) {
  Coordinator<Program> coordinator(graph, std::move(program), options);
  return coordinator.run(out_values);
}

}  // namespace ipregel::shard
