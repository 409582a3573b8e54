#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ft/binary_format.hpp"
#include "shard/coordinator.hpp"

namespace ipregel::shard {

/// Exit status of a coordinator incarnation that died to a simulated
/// power cut (io::PowerLoss out of a manifest publish): the supervisor
/// treats it exactly like a SIGKILL — fork a takeover.
inline constexpr int kCoordExitPowerCut = 9;

namespace detail {

inline constexpr std::uint64_t kResultMagic = 0x544C555352504900ULL;
inline constexpr std::uint32_t kResultFieldsTag = 1;
inline constexpr std::uint32_t kResultValuesTag = 2;

[[nodiscard]] inline double resilient_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Serialises a finished incarnation's outcome (+ final values when ok)
/// into the result-pipe blob: the shared ft binary framing (CRC-sealed
/// sections, end-of-file trailer) over an in-memory buffer. The blob only
/// ever travels from a coordinator child to the supervisor of the same
/// build, so its layout is free to change.
[[nodiscard]] inline std::string encode_result_blob(
    const ShardOutcome& out, const std::vector<std::uint8_t>& values) {
  ft::FieldWriter fields;
  fields.u8(out.ok() ? 1 : 0);
  fields.u64(out.result.supersteps);
  fields.f64(out.result.seconds);
  fields.u64(out.result.total_messages);
  fields.u64(out.result.total_executed_vertices);
  fields.u8(out.result.reached_superstep_cap ? 1 : 0);
  if (out.error.has_value()) {
    fields.u8(static_cast<std::uint8_t>(out.error->kind()));
    fields.u64(out.error->superstep());
    fields.u64(out.error->thread());
    fields.u64(out.error->vertex());
    const std::string& detail = out.error->detail();
    fields.blob(detail.data(), detail.size());
  }
  fields.u64(out.shard.respawns);
  fields.u64(out.shard.snapshot_recoveries);
  fields.u64(out.shard.heartbeat_kills);
  fields.f64(out.shard.recovery_seconds);
  fields.u64(out.shard.coordinator_takeovers);
  fields.u64(out.shard.adopted_workers);
  fields.f64(out.shard.coordinator_recovery_seconds);
  fields.u64(out.shard.coordinator_fenced);

  std::ostringstream blob(std::ios::binary);
  ft::BinaryWriter writer(blob, kResultMagic, 1);
  writer.section(kResultFieldsTag, fields.bytes().data(),
                 fields.bytes().size());
  writer.section(kResultValuesTag, values.data(), values.size());
  writer.finish();
  return std::move(blob).str();
}

inline void write_result_blob(int fd, const ShardOutcome& out,
                              const std::vector<std::uint8_t>& values) {
  const std::string blob = encode_result_blob(out, values);
  for (std::size_t done = 0; done < blob.size();) {
    const ssize_t n = ::write(fd, blob.data() + done, blob.size() - done);
    if (n < 0 && errno != EINTR) {
      return;  // the supervisor reads a short blob as a crash
    }
    done += n > 0 ? static_cast<std::size_t>(n) : 0;
  }
}

/// Parses a result-pipe blob. false = short / garbled / CRC mismatch,
/// which the supervisor treats as a coordinator crash.
inline bool read_result_blob(const std::vector<std::uint8_t>& buf,
                             ShardOutcome* out,
                             std::vector<std::uint8_t>* values) {
  try {
    std::istringstream in(std::string(buf.begin(), buf.end()),
                          std::ios::binary);
    ft::BinaryReader reader(in, "coordinator result blob", kResultMagic, 1,
                            1);
    const std::vector<std::uint8_t> fb =
        reader.expect_section(kResultFieldsTag);
    std::vector<std::uint8_t> vals = reader.expect_section(kResultValuesTag);
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> extra;
    if (reader.next_section(tag, extra) ||
        in.peek() != std::char_traits<char>::eof()) {
      return false;
    }
    ft::FieldReader r(fb, "coordinator result blob");
    const bool ok = r.u8() != 0;
    *out = ShardOutcome{};
    out->result.supersteps = static_cast<std::size_t>(r.u64());
    out->result.seconds = r.f64();
    out->result.total_messages = static_cast<std::size_t>(r.u64());
    out->result.total_executed_vertices = static_cast<std::size_t>(r.u64());
    out->result.reached_superstep_cap = r.u8() != 0;
    if (!ok) {
      const auto kind = static_cast<RunErrorKind>(r.u8());
      const auto superstep = static_cast<std::size_t>(r.u64());
      const auto thread = static_cast<std::size_t>(r.u64());
      const std::uint64_t vertex = r.u64();
      const std::vector<std::uint8_t> detail = r.blob();
      out->error.emplace(kind, superstep, thread, vertex,
                         std::string(detail.begin(), detail.end()));
    }
    out->shard.respawns = static_cast<std::size_t>(r.u64());
    out->shard.snapshot_recoveries = static_cast<std::size_t>(r.u64());
    out->shard.heartbeat_kills = static_cast<std::size_t>(r.u64());
    out->shard.recovery_seconds = r.f64();
    out->shard.coordinator_takeovers = static_cast<std::size_t>(r.u64());
    out->shard.adopted_workers = static_cast<std::size_t>(r.u64());
    out->shard.coordinator_recovery_seconds = r.f64();
    out->shard.coordinator_fenced = static_cast<std::size_t>(r.u64());
    r.done();
    *values = std::move(vals);
    return true;
  } catch (const ft::FormatError&) {
    return false;
  }
}

}  // namespace detail

/// The coordinator-recovery entry point: run_sharded with the coordinator
/// itself inside a failure domain. The calling process becomes a thin
/// SUPERVISOR that owns every cross-incarnation resource — the shm arena
/// and reattach listener (kShm), the TCP rendezvous (kTcp), the recovery
/// directory — and forks the coordinator as a child. If that child dies
/// (SIGKILL, power cut mid-manifest-publish, crash), the supervisor forks
/// a TAKEOVER incarnation that loads the newest valid manifest, claims a
/// higher fencing epoch, re-attaches the parked workers (or respawns them
/// from snapshots), and continues the run — bit-identical to an
/// undisturbed one, bounded by recovery.max_takeovers.
///
/// The supervisor also runs as a child SUBREAPER: workers orphaned by a
/// dead coordinator reparent here, and their deaths are relayed to the
/// live coordinator over the orphan pipe so adopted workers stay
/// supervised. With recovery disabled this is exactly run_sharded.
template <VertexProgram Program>
[[nodiscard]] ShardOutcome run_sharded_resilient(
    const graph::CsrGraph& graph, Program program, const ShardOptions& options,
    std::vector<typename Program::value_type>* out_values = nullptr) {
  using Value = typename Program::value_type;
  if (!options.recovery.enabled()) {
    return run_sharded(graph, std::move(program), options, out_values);
  }

  io::Vfs& vfs = io::vfs_or_real(nullptr);
  if (!vfs.exists(options.recovery.directory)) {
    vfs.mkdir(options.recovery.directory);
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  // The shared plane: built ONCE, inherited by every incarnation.
  ShardPartition part(graph, options.num_shards, options.partition);
  ArenaSpec spec;
  std::unique_ptr<ShmArena> arena;
  std::unique_ptr<TcpRendezvous> rendezvous;
  Channel reattach;
  if (options.transport == TransportKind::kTcp) {
    rendezvous = std::make_unique<TcpRendezvous>(part.shards());
  } else {
    spec = Coordinator<Program>::make_arena_spec(graph, part, options);
    arena = std::make_unique<ShmArena>(spec.total_bytes);
    for (std::size_t src = 0; src < part.shards(); ++src) {
      for (std::size_t dst = 0; dst < part.shards(); ++dst) {
        if (src != dst) {
          (void)spec.attach(*arena, src, dst, /*initialize=*/true);
        }
      }
    }
    reattach = Channel::listen_at(options.recovery.directory +
                                      "/reattach.sock",
                                  static_cast<int>(part.shards()) * 2 + 8);
  }

  // Orphan-death relay: supervisor writes CoordOrphanDeath records, the
  // live coordinator polls the read end. Nonblocking on both ends.
  int orphan_pipe[2] = {-1, -1};
  if (::pipe(orphan_pipe) != 0) {
    throw std::runtime_error("run_sharded_resilient: pipe failed");
  }
  ::fcntl(orphan_pipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(orphan_pipe[1], F_SETFL, O_NONBLOCK);

  const double t_begin = detail::resilient_now();
  ShardOutcome final_outcome;
  std::vector<std::uint8_t> final_values;
  bool have_final = false;
  std::size_t fenced_incarnations = 0;
  std::vector<CoordOrphanDeath> pending_deaths;

  for (std::size_t incarnation = 0;
       incarnation <= options.recovery.max_takeovers && !have_final;
       ++incarnation) {
    if (options.guards.run_seconds > 0.0 &&
        detail::resilient_now() - t_begin > options.guards.run_seconds) {
      final_outcome = ShardOutcome{};
      final_outcome.error.emplace(RunErrorKind::kRunTimeout, 0, 0,
                                  RunError::kNoVertex,
                                  "sharded run exceeded guards.run_seconds "
                                  "across coordinator takeovers");
      have_final = true;
      break;
    }
    int result_pipe[2] = {-1, -1};
    if (::pipe(result_pipe) != 0) {
      throw std::runtime_error("run_sharded_resilient: pipe failed");
    }
    const pid_t coord = ::fork();
    if (coord < 0) {
      ::close(result_pipe[0]);
      ::close(result_pipe[1]);
      throw std::runtime_error("run_sharded_resilient: fork failed");
    }
    if (coord == 0) {
      // --- coordinator incarnation ---------------------------------------
      ::close(result_pipe[0]);
      ::close(orphan_pipe[1]);
      try {
        RecoveryBoot boot;
        boot.resilient = true;
        boot.takeover = incarnation > 0;
        boot.takeover_index = incarnation;
        if (arena != nullptr) {
          boot.spec = &spec;
          boot.arena = arena.get();
        }
        boot.rendezvous = rendezvous.get();
        boot.reattach = reattach.valid() ? &reattach : nullptr;
        boot.orphan_fd = orphan_pipe[0];
        boot.result_fd = result_pipe[1];
        Coordinator<Program> coordinator(graph, program, options, boot);
        std::vector<Value> values;
        ShardOutcome out = coordinator.run(&values);
        std::vector<std::uint8_t> bytes;
        if (out.ok()) {
          bytes.resize(values.size() * sizeof(Value));
          std::memcpy(bytes.data(), values.data(), bytes.size());
        }
        detail::write_result_blob(result_pipe[1], out, bytes);
      } catch (const io::PowerLoss&) {
        ::_exit(kCoordExitPowerCut);  // the simulated machine lost power
      } catch (const std::exception& e) {
        // Configuration and unexpected failures surface typed, not as an
        // endless takeover loop over a deterministic throw.
        ShardOutcome out;
        out.error.emplace(RunErrorKind::kShardFailure, 0, 0,
                          RunError::kNoVertex,
                          std::string("coordinator exception: ") + e.what());
        detail::write_result_blob(result_pipe[1], out, {});
      }
      ::close(result_pipe[1]);
      ::_exit(0);
    }

    // --- supervisor: pump the result pipe, reap, relay orphan deaths -----
    ::close(result_pipe[1]);
    ::fcntl(result_pipe[0], F_SETFL, O_NONBLOCK);
    std::vector<std::uint8_t> buf;
    int coord_status = 0;
    bool coord_dead = false;
    bool pipe_eof = false;
    bool killed_on_timeout = false;
    while (!pipe_eof || !coord_dead) {
      std::uint8_t tmp[4096];
      for (;;) {
        const ssize_t n = ::read(result_pipe[0], tmp, sizeof(tmp));
        if (n > 0) {
          buf.insert(buf.end(), tmp, tmp + n);
          continue;
        }
        if (n == 0) {
          pipe_eof = true;
        }
        break;
      }
      for (;;) {
        int status = 0;
        const pid_t p = ::waitpid(-1, &status, WNOHANG);
        if (p <= 0) {
          break;
        }
        if (p == coord) {
          coord_dead = true;
          coord_status = status;
        } else {
          CoordOrphanDeath death;
          death.pid = static_cast<std::int32_t>(p);
          death.status = status;
          pending_deaths.push_back(death);
        }
      }
      while (!pending_deaths.empty()) {
        const ssize_t n = ::write(orphan_pipe[1], &pending_deaths.front(),
                                  sizeof(CoordOrphanDeath));
        if (n != static_cast<ssize_t>(sizeof(CoordOrphanDeath))) {
          break;  // pipe full; retry next tick
        }
        pending_deaths.erase(pending_deaths.begin());
      }
      if (!coord_dead && !killed_on_timeout &&
          options.guards.run_seconds > 0.0 &&
          detail::resilient_now() - t_begin >
              options.guards.run_seconds + 5.0) {
        // Backstop for a coordinator too wedged to honour its own guard.
        ::kill(coord, SIGKILL);
        killed_on_timeout = true;
      }
      if (!pipe_eof || !coord_dead) {
        ::usleep(2000);
      }
    }
    ::close(result_pipe[0]);

    const bool power_cut = WIFEXITED(coord_status) &&
                           WEXITSTATUS(coord_status) == kCoordExitPowerCut;
    const bool clean =
        WIFEXITED(coord_status) && WEXITSTATUS(coord_status) == 0;
    ShardOutcome out;
    std::vector<std::uint8_t> values;
    if (clean && detail::read_result_blob(buf, &out, &values)) {
      const bool fenced =
          out.error.has_value() &&
          out.error->kind() == RunErrorKind::kCoordinatorFenced;
      if (fenced && incarnation < options.recovery.max_takeovers) {
        // The stale loser stood down without touching the run; fork a
        // fresh takeover that claims the epoch properly.
        ++fenced_incarnations;
        continue;
      }
      out.shard.coordinator_fenced += fenced_incarnations;
      final_outcome = std::move(out);
      final_values = std::move(values);
      have_final = true;
      continue;
    }
    // Crashed (signal), power cut, or a garbled result: takeover if the
    // budget allows.
    (void)power_cut;
    if (incarnation == options.recovery.max_takeovers) {
      final_outcome = ShardOutcome{};
      final_outcome.error.emplace(
          RunErrorKind::kShardFailure, 0, 0, RunError::kNoVertex,
          "coordinator takeover budget exhausted (" +
              std::to_string(options.recovery.max_takeovers) +
              " takeovers)");
      final_outcome.shard.coordinator_fenced = fenced_incarnations;
      have_final = true;
    }
  }

  // Bounded final drain: reap whatever reparented here. Any worker still
  // alive is inside its bounded park window and exits on its own.
  const double drain_deadline = detail::resilient_now() + 0.25;
  while (detail::resilient_now() < drain_deadline) {
    int status = 0;
    const pid_t p = ::waitpid(-1, &status, WNOHANG);
    if (p <= 0) {
      if (::waitpid(-1, &status, WNOHANG) < 0) {
        break;  // no children at all remain
      }
      ::usleep(2000);
    }
  }
  ::close(orphan_pipe[0]);
  ::close(orphan_pipe[1]);
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);

  if (!have_final) {
    final_outcome = ShardOutcome{};
    final_outcome.error.emplace(RunErrorKind::kShardFailure, 0, 0,
                                RunError::kNoVertex,
                                "coordinator takeover budget exhausted");
  }
  if (final_outcome.ok() && out_values != nullptr) {
    out_values->resize(final_values.size() / sizeof(Value));
    std::memcpy(out_values->data(), final_values.data(),
                final_values.size());
  }
  return final_outcome;
}

}  // namespace ipregel::shard
