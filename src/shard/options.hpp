#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/run_error.hpp"
#include "ft/checkpoint.hpp"
#include "shard/partition.hpp"
#include "shard/supervisor.hpp"

namespace ipregel::shard {

/// Which data/control plane carries shard traffic.
enum class TransportKind : std::uint8_t {
  /// Shared-memory SPSC rings + SEQPACKET socketpairs (fork()ed workers
  /// on one box; the PR-7 plane).
  kShm,
  /// Nonblocking TCP frame streams on loopback: the same wire frames,
  /// plus handshakes, reconnect-with-resync, and heartbeats over the
  /// network. Single-host today (workers are still fork()ed), but every
  /// byte crosses a real socket — the multi-node data path, exercised
  /// end to end.
  kTcp,
};

/// Tuning of the TCP transport. Defaults are sized for loopback tests:
/// real deployments would scale the timeouts with RTT.
struct NetOptions {
  /// Exponential reconnect backoff: initial delay, multiplier, ceiling.
  double backoff_initial_seconds = 0.01;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 0.25;
  /// Consecutive failed (re)connect attempts on one link before the
  /// worker declares the peer unreachable and exits for the supervisor
  /// ladder (typed degradation, never a hang).
  std::size_t max_reconnects_per_link = 8;
};

/// A scripted network fault, the transport-level sibling of ShardFault:
/// "shard S's link to peer P, in incarnation G, misbehaves at counted
/// frame operation `at_op`". Ops count protocol frames (data frames and
/// handshakes on the data plane; hello/barrier/values on the control
/// plane — NOT timer-driven heartbeats), so a seeded plan replays
/// deterministically.
struct NetFault {
  enum class Kind : std::uint8_t {
    kNone,
    /// The next frame write is split into single-byte sends (partial-
    /// write resume).
    kShortWrite,
    /// The next frame read arrives one byte at a time (partial-read
    /// resume).
    kShortRead,
    /// The connection is closed with SO_LINGER{0} mid-frame: the peer
    /// sees ECONNRESET with a torn frame on the wire.
    kResetMidFrame,
    /// The connection is dropped cleanly before the frame is sent.
    kDropConn,
    /// The link goes silent (all I/O blocked) for `seconds` — long stalls
    /// exercise the peer's io_timeout teardown and the coordinator's
    /// missed-heartbeat watchdog.
    kStall,
    /// The link is fully partitioned for `seconds`: the live connection
    /// is reset AND new connects are rejected until the window ends.
    /// Arm it on both endpoints of a pair for a symmetric partition.
    kPartition,
  };
  enum class Plane : std::uint8_t { kData, kCtrl };

  static constexpr std::size_t kAnyPeer = static_cast<std::size_t>(-1);

  Kind kind = Kind::kNone;
  /// The shard whose transport injects the fault.
  std::size_t shard = 0;
  Plane plane = Plane::kData;
  /// Data-plane peer the fault applies to (kAnyPeer = every peer link).
  /// Ignored for the ctrl plane (one link, to the coordinator).
  std::size_t peer = kAnyPeer;
  /// Counted frame-op index on that link the fault trips at.
  std::uint64_t at_op = 0;
  /// Incarnation the fault arms in (0 = original process, 1 = first
  /// respawn, ...), mirroring ShardFault::generation.
  std::size_t generation = 0;
  /// Window length for kStall / kPartition.
  double seconds = 0.25;
};

/// A scripted worker-process fault, the multi-process analogue of
/// ft::FaultPlan: "shard S, in its G-th incarnation, dies (or hangs) at
/// superstep T, at this point of the superstep protocol". Deterministic
/// and per-incarnation, so a chaos test can kill a shard, let the
/// supervisor respawn it, and know the respawn will not re-trip the same
/// fault.
struct ShardFault {
  enum class Kind : std::uint8_t {
    kNone,
    /// The worker raise(SIGKILL)s itself — an instant, uncatchable death,
    /// indistinguishable from an OOM kill or an operator's kill -9.
    kSigkill,
    /// The worker stops making progress AND stops heartbeating (sleeps
    /// forever); only the coordinator's missed-heartbeat watchdog can
    /// detect it. Exercises the SIGKILL-by-coordinator path.
    kHang,
  };
  /// Where in the superstep protocol the fault trips.
  enum class Phase : std::uint8_t {
    /// Mid-compute, before any of this superstep's frames are posted.
    kCompute,
    /// After posting outgoing frames, before entering the barrier — the
    /// survivors may already be consuming this superstep's messages.
    kAfterPost,
    /// After receiving the barrier release, before the checkpoint for the
    /// next superstep is written — redo resumes from the PREVIOUS
    /// snapshot.
    kBeforeCheckpoint,
    /// After the checkpoint for the next superstep is on disk — redo
    /// resumes exactly at the superstep the survivors are entering.
    kAfterCheckpoint,
  };

  Kind kind = Kind::kNone;
  std::size_t shard = 0;
  std::uint64_t superstep = 0;
  Phase phase = Phase::kCompute;
  /// Incarnation the fault arms in: 0 = the original process, 1 = the
  /// first respawn, ... Lets tests fault a RECOVERY, not just a run.
  std::size_t generation = 0;
};

/// A scripted snapshot-read fault during recovery: shard S's G-th
/// incarnation sees EIO on its first `fail_reads` snapshot read()s (the
/// restore path wraps its filesystem in io::ReadFaultVfs). The newest
/// snapshot gets quarantined and recovery falls back one generation — the
/// fallback ladder, exercised across a real fork() boundary.
struct RestoreFault {
  std::size_t shard = 0;
  /// Incarnation the fault arms in; respawns are generation 1, 2, ...
  std::size_t generation = 1;
  std::size_t fail_reads = 1;
};

/// A scripted COORDINATOR fault, the control-plane sibling of ShardFault:
/// "the coordinator incarnation with fencing epoch E dies at this point of
/// the run protocol". Only honoured by run_sharded_resilient — a plain
/// run_sharded has no supervisor to take over, so killing its coordinator
/// would just kill the run.
struct CoordFault {
  enum class Kind : std::uint8_t {
    kNone,
    /// The coordinator raise(SIGKILL)s itself — instant, uncatchable, the
    /// operator's kill -9 / OOM-kill model.
    kSigkill,
    /// A power cut at counted mutating-filesystem-syscall `at_syscall` of
    /// the NEXT manifest publish: the write stops mid-syscall and the
    /// process dies, leaving whatever bytes the real filesystem already
    /// holds on disk. Only meaningful with phase kManifestPublish.
    kPowerCut,
  };
  /// Where in the coordinator protocol the fault trips.
  enum class Phase : std::uint8_t {
    /// During the initial spawn loop, right after forking shard
    /// `superstep` (partial spawn; later shards never existed).
    kSpawn,
    /// On receiving the first barrier entry for superstep `superstep`,
    /// before the barrier is complete.
    kBarrierCollect,
    /// During the manifest publish for the release of `superstep` (the
    /// commit point). kSigkill dies just before the write; kPowerCut dies
    /// inside it at `at_syscall`.
    kManifestPublish,
    /// After the release of `superstep` was durably committed and the
    /// proceed was delivered to shard 0 — but before the remaining shards
    /// heard it (partial delivery).
    kProceed,
    /// During a TAKEOVER's recovery bring-up, right after the first worker
    /// was adopted (reattach mode) or the first replacement shard was
    /// forked (full-respawn mode). Arms a second takeover on top of the
    /// first. `superstep` is ignored.
    kRecover,
  };

  Kind kind = Kind::kNone;
  Phase phase = Phase::kProceed;
  /// Barrier superstep (or spawn index, for kSpawn) the fault trips at.
  std::uint64_t superstep = 0;
  /// Fencing epoch of the incarnation the fault arms in: 1 = the first
  /// coordinator, 2 = the first takeover, ... Lets a plan kill a TAKEOVER.
  std::uint64_t epoch = 1;
  /// Counted mutating syscall within the manifest publish (kPowerCut).
  std::uint64_t at_syscall = 0;
};

/// Coordinator crash-recovery configuration. Recovery is ON when
/// `directory` is non-empty AND the run enters through
/// run_sharded_resilient; plain run_sharded ignores it entirely.
struct RecoveryOptions {
  /// Durable run directory: the manifest sequence, the shm reattach
  /// rendezvous socket, and (TCP) the sealed final-values blob live here.
  /// Must be a real filesystem path (same constraint as checkpoints).
  std::string directory;

  /// How long a worker whose ctrl plane died PARKS awaiting adoption by a
  /// takeover coordinator before giving up with today's typed orphan exit
  /// (kWorkerExitOrphan). 0 disables parking — ctrl loss exits
  /// immediately, the pre-recovery behaviour.
  double park_seconds = 10.0;

  /// How long a takeover coordinator waits for parked survivors to
  /// reattach before falling back to respawning the missing shards from
  /// their newest valid snapshots.
  double reattach_wait_seconds = 2.0;

  /// Takeover strategy: true = adopt parked survivors (their in-memory
  /// state and retained frames survive, no snapshot restore needed);
  /// false = abandon the old era and respawn EVERY shard from snapshots
  /// at a consistent cut (exercises the pure-durable-state path).
  bool prefer_reattach = true;

  /// Coordinator incarnations beyond the first the supervisor will fork.
  std::size_t max_takeovers = 4;

  /// TEST HOOK — simulate a RESURRECTED STALE coordinator: the Nth
  /// takeover (1 = first takeover) skips the fence-claim manifest write
  /// and presents fencing epoch 1, as a woken-up dead incarnation that
  /// still believes it owns the run would. Workers that have seen a newer
  /// epoch must reject it (kCoordinatorFenced), proving split-brain
  /// cannot commit. 0 = off.
  std::size_t stale_epoch_at_takeover = 0;

  [[nodiscard]] bool enabled() const noexcept { return !directory.empty(); }
};

/// Per-run observability counters of the shard control plane, reported
/// next to the RunResult.
struct ShardRunStats {
  /// Worker processes forked beyond the initial N (one per recovery).
  std::size_t respawns = 0;
  /// Respawns that restored from a snapshot (vs. restarting superstep 0).
  std::size_t snapshot_recoveries = 0;
  /// Workers SIGKILLed by the coordinator for missed heartbeats.
  std::size_t heartbeat_kills = 0;
  /// Wall-clock seconds spent with at least one shard dead or recovering
  /// (death detection to the respawned worker's barrier re-entry).
  double recovery_seconds = 0.0;
  /// Coordinator takeovers performed (incarnations beyond the first).
  std::size_t coordinator_takeovers = 0;
  /// Parked workers adopted across all takeovers (vs. respawned).
  std::size_t adopted_workers = 0;
  /// Wall-clock seconds from the LAST takeover's boot to its first freshly
  /// committed barrier — the bench/shard_scaling
  /// `coordinator_recovery_seconds` column.
  double coordinator_recovery_seconds = 0.0;
  /// Coordinator incarnations that were rejected by workers as STALE
  /// (kCoordinatorFenced) and superseded by a rightful takeover. A fenced
  /// incarnation never commits anything — this counts how often the
  /// fencing rule actually fired.
  std::size_t coordinator_fenced = 0;
};

/// The typed result of a sharded run: RunOutcome's shape plus the shard
/// control-plane counters.
struct ShardOutcome {
  RunResult result{};
  std::optional<RunError> error;
  ShardRunStats shard{};

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Configuration of a sharded multi-process run (shard::run_sharded).
struct ShardOptions {
  /// Worker processes; each owns the slot set the partition scheme
  /// assigns it.
  std::size_t num_shards = 2;

  /// How slots are assigned to shards. kBlock reproduces the engine's
  /// thread split (bit-identical combine order); kHash spreads hub
  /// vertices of degree-renumbered graphs across shards.
  PartitionScheme partition = PartitionScheme::kBlock;

  /// Data/control plane: shared-memory rings or loopback TCP streams.
  TransportKind transport = TransportKind::kShm;

  /// TCP transport tuning (ignored under kShm).
  NetOptions net{};

  /// Scripted network faults (chaos tests; empty in production; ignored
  /// under kShm).
  std::vector<NetFault> net_faults;

  /// Hard superstep ceiling, mirroring EngineOptions::max_supersteps.
  std::size_t max_supersteps = 10'000;

  /// Per-shard checkpointing. Each worker writes its slice through
  /// AtomicFile into `directory`/shard<K>/ and prunes/quarantines its own
  /// subdirectory via SnapshotDirectory. kOff disables recovery-by-
  /// snapshot: a died shard restarts from superstep 0 (only acceptable
  /// when faults are not expected).
  ft::CheckpointPolicy checkpoint{};

  /// Watchdogs. guards.run_seconds bounds the whole job (kRunTimeout);
  /// guards.superstep_seconds, when set, overrides hang_timeout_seconds
  /// as the missed-heartbeat ceiling — the PR-2 watchdog knobs routed
  /// into the multi-process control plane. memory_budget/cancel_token are
  /// coordinator-side: the cancel token aborts the job at the next poll.
  RunGuards guards{};

  /// How often a live worker heartbeats the coordinator. Heartbeats are
  /// sent from inside the compute/drain/barrier loops (progress-coupled:
  /// a stuck worker stops heartbeating; there is no helper thread to
  /// keep a corpse looking alive).
  double heartbeat_interval_seconds = 0.05;

  /// Coordinator kills a worker whose last heartbeat is older than this.
  /// 0 = derive: guards.superstep_seconds when set, else 30s.
  double hang_timeout_seconds = 0.0;

  /// Outgoing frame generations each worker retains for replay to a
  /// recovering peer. Must cover the deepest possible resume gap: barrier
  /// skew is at most 1 superstep and an EIO fallback costs one more
  /// snapshot generation, so 3 covers single-failure chaos with
  /// checkpoint.every == 1 and heavyweight snapshots. A lightweight
  /// resume reads one generation deeper still (resume is the snapshot's
  /// superstep + 1, and resend rebuilds from the frames BELOW it), so
  /// runs stacking lightweight mode with snapshot-read faults should set
  /// 4 — what the kill-matrix chaos cells do.
  std::size_t retain_supersteps = 3;

  /// Respawn budget and backoff.
  SupervisorPolicy supervisor{};

  /// Scripted process faults (chaos tests; empty in production).
  std::vector<ShardFault> faults;

  /// Scripted snapshot-read faults during recovery.
  std::vector<RestoreFault> restore_faults;

  /// Coordinator crash recovery (run_sharded_resilient only).
  RecoveryOptions recovery{};

  /// Scripted coordinator faults (chaos tests; empty in production;
  /// honoured only by run_sharded_resilient).
  std::vector<CoordFault> coord_faults;
};

}  // namespace ipregel::shard
