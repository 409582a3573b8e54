// Scaling and recovery costs of the multi-process sharded runtime:
// PageRank on the wiki-like R-MAT graph through 1/2/4/8 worker processes
// vs the one-thread single-process engine, plus recovery-time-per-kill under the
// chaos schedule (SIGKILL mid-run, restore from the newest per-shard
// snapshot while survivors wait at the barrier).
//
// Results go to results/bench_shard{,_smoke}.{csv,json}; the JSON feeds
// scripts/check_bench_regression.py. The embedded gates are structural,
// not machine-tuned: the 1-shard arm must stay within an order of
// magnitude of the engine (the fork/ring/barrier plumbing is overhead,
// not a slowdown machine), recovery must complete in bounded time, and
// the binary enforces result correctness itself — the sharded values
// must match the engine (bit-identical at 1 shard, re-association noise
// only beyond) and the post-recovery values must be BIT-identical to the
// undisturbed sharded run, else it exits nonzero and can never become a
// committed baseline. --smoke shrinks the graph and the shard ladder for
// the CI smoke test.
//
// --transport=tcp re-runs the same ladder and recovery cycle over TCP
// loopback instead of the shm rings (results/bench_shard_tcp{,_smoke}):
// same correctness contract, same structural gates with wider overhead
// margins (a loopback socket hop per frame is real cost, not a
// regression), so the network data plane is priced and gated separately
// from the shm one.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "benchlib/reporting.hpp"
#include "benchlib/workloads.hpp"
#include "core/runner.hpp"
#include "runtime/timer.hpp"
#include "shard/resilient.hpp"

namespace {

using namespace ipregel;         // NOLINT(google-build-using-namespace)
using namespace ipregel::bench;  // NOLINT(google-build-using-namespace)

struct Params {
  bool smoke = false;
  bool tcp = false;
  std::size_t rounds = 10;
  std::vector<std::size_t> shard_ladder{1, 2, 4, 8};
  double shard1_speedup_floor = 0.1;   ///< 1-shard <= 10x engine wall
  double recovery_ceiling_seconds = 60.0;
  /// Superstep at which the COORDINATOR is killed, and the ceiling on the
  /// takeover's resume-to-first-committed-barrier latency.
  std::uint64_t coord_kill_superstep = 7;
  double coord_recovery_ceiling_seconds = 60.0;
};

Params make_params(bool smoke, bool tcp) {
  Params p;
  p.smoke = smoke;
  p.tcp = tcp;
  if (smoke) {
    p.rounds = 6;
    p.shard_ladder = {1, 2};
    // Sanitizer CI boxes are ~10x slower and the smoke graph is small
    // enough that fixed fork/mmap setup dominates: keep the structural
    // claim (bounded overhead, bounded recovery), widen the margins.
    p.shard1_speedup_floor = 0.02;
    p.recovery_ceiling_seconds = 120.0;
    // The smoke run is only p.rounds=6 supersteps long: kill earlier.
    p.coord_kill_superstep = 4;
    p.coord_recovery_ceiling_seconds = 120.0;
  }
  if (tcp) {
    // Every frame pays a loopback socket round-trip and the ctrl plane
    // runs over TCP too; halve the overhead floor rather than letting
    // the shm gate condemn the priced-in network cost.
    p.shard1_speedup_floor /= 2.0;
  }
  return p;
}

struct Arm {
  double seconds = 0.0;
  std::size_t supersteps = 0;
  std::uint64_t messages = 0;
  std::vector<double> values;
};

[[nodiscard]] double max_abs_diff(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  std::size_t first_slot) {
  double worst = 0.0;
  for (std::size_t s = first_slot; s < a.size(); ++s) {
    worst = std::max(worst, std::abs(a[s] - b[s]));
  }
  return worst;
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool tcp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--transport=tcp") {
      tcp = true;
    } else if (arg == "--transport=shm") {
      tcp = false;
    } else {
      std::cerr << "usage: shard_scaling [--smoke] [--transport=shm|tcp]\n";
      return 2;
    }
  }
  const Params p = make_params(smoke, tcp);
  const Workload w =
      make_wiki_like(smoke ? BenchSize::kSmall : BenchSize::kDefault);
  const graph::CsrGraph& g = w.graph;
  apps::PageRank pr;
  pr.rounds = p.rounds;
  const char* transport_name = tcp ? "tcp" : "shm";
  std::cout << "iPregel shard scaling (" << w.name
            << (smoke ? ", smoke" : "") << ", " << transport_name
            << " transport, " << p.rounds << " PageRank rounds)\n";

  std::string bench_name = "shard_scaling";
  if (tcp) bench_name += "_tcp";
  if (smoke) bench_name += "_smoke";
  JsonReport report(bench_name);
  report.text("graph", w.name);
  report.text("mode", smoke ? "smoke" : "full");
  report.text("transport", transport_name);
  report.count("rounds", p.rounds);
  Table table("PageRank wall clock by worker-process count",
              {"arm", "seconds", "speedup", "supersteps", "messages"});

  // ---- Single-process engine baseline ----------------------------------
  // One thread, as every shard worker runs: each ratio then prices the
  // sharding itself. A team of hardware_concurrency threads made this
  // baseline bimodal: a fresh team sometimes shares one CPU for its first
  // ~second and runs at one thread's speed (EXPERIMENTS.md, "the bimodal
  // shard baseline").
  Arm single;
  {
    EngineOptions one_thread;
    one_thread.threads = 1;
    runtime::Timer timer;
    const RunResult r =
        run_version(g, pr, VersionId{CombinerKind::kPull, false},
                    one_thread, nullptr, &single.values);
    single.seconds = timer.seconds();
    single.supersteps = r.supersteps;
    single.messages = r.total_messages;
  }
  table.add_row({"single-process", fmt3(single.seconds), "1.0x",
                 fmt_count(single.supersteps), fmt_count(single.messages)});
  report.num("single_process.seconds", single.seconds);

  // ---- Shard ladder ----------------------------------------------------
  for (const std::size_t shards : p.shard_ladder) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    if (p.tcp) opt.transport = shard::TransportKind::kTcp;
    Arm arm;
    runtime::Timer timer;
    const auto outcome = shard::run_sharded(g, pr, opt, &arm.values);
    arm.seconds = timer.seconds();
    if (!outcome.ok()) {
      std::cerr << "FAIL: " << shards
                << "-shard run errored: " << outcome.error->what() << "\n";
      return 1;
    }
    arm.supersteps = outcome.result.supersteps;
    arm.messages = outcome.result.total_messages;
    // Correctness is part of the bench contract: re-association across
    // shard batches moves doubles by ~1e-12 ULP noise, nothing more.
    const double diff =
        max_abs_diff(arm.values, single.values, g.first_slot());
    if (diff > 1e-9) {
      std::cerr << "FAIL: " << shards
                << "-shard values diverge from the engine by " << diff
                << "\n";
      return 1;
    }
    const double speedup =
        arm.seconds > 0.0 ? single.seconds / arm.seconds : 0.0;
    const std::string name = "shards_" + std::to_string(shards);
    table.add_row({name, fmt3(arm.seconds), fmt_factor(speedup),
                   fmt_count(arm.supersteps), fmt_count(arm.messages)});
    report.num(name + ".seconds", arm.seconds);
    report.num(name + ".speedup", speedup);
  }
  report.floor("shards_1.speedup", p.shard1_speedup_floor);

  // ---- Recovery time per kill ------------------------------------------
  // A checkpointed 2-shard run where each shard is SIGKILLed once at a
  // different superstep; the coordinator's recovery_seconds counts death
  // detection to barrier re-entry, and the values must still be
  // bit-identical to an undisturbed run with the same options.
  const std::filesystem::path ckpt_dir =
      std::filesystem::temp_directory_path() /
      ("ipregel_bench_" + bench_name);
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);
  shard::ShardOptions chaos;
  chaos.num_shards = 2;
  if (p.tcp) chaos.transport = shard::TransportKind::kTcp;
  chaos.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  chaos.checkpoint.every = 2;
  chaos.checkpoint.directory = ckpt_dir.string();
  chaos.retain_supersteps = 4;
  chaos.supervisor.backoff_initial_seconds = 0.01;

  std::vector<double> undisturbed;
  const auto base = shard::run_sharded(g, pr, chaos, &undisturbed);
  if (!base.ok()) {
    std::cerr << "FAIL: undisturbed recovery baseline errored: "
              << base.error->what() << "\n";
    return 1;
  }
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);
  for (const std::size_t shard : {1u, 0u}) {
    shard::ShardFault kill;
    kill.kind = shard::ShardFault::Kind::kSigkill;
    kill.shard = shard;
    kill.superstep = shard == 1 ? p.rounds / 2 : p.rounds / 2 + 2;
    kill.phase = shard::ShardFault::Phase::kCompute;
    chaos.faults.push_back(kill);
  }
  std::vector<double> recovered;
  const auto outcome = shard::run_sharded(g, pr, chaos, &recovered);
  std::filesystem::remove_all(ckpt_dir);
  if (!outcome.ok()) {
    std::cerr << "FAIL: chaos run errored: " << outcome.error->what()
              << "\n";
    return 1;
  }
  if (outcome.shard.respawns == 0) {
    std::cerr << "FAIL: chaos schedule produced no kills\n";
    return 1;
  }
  for (std::size_t s = g.first_slot(); s < recovered.size(); ++s) {
    if (std::memcmp(&recovered[s], &undisturbed[s], sizeof(double)) != 0) {
      std::cerr << "FAIL: post-recovery values are not bit-identical at "
                   "slot "
                << s << "\n";
      return 1;
    }
  }
  const double per_kill =
      outcome.shard.recovery_seconds /
      static_cast<double>(outcome.shard.respawns);
  std::cout << "recovery: " << outcome.shard.respawns << " kills, "
            << fmt3(outcome.shard.recovery_seconds)
            << " s recovering total, " << fmt3(per_kill)
            << " s per kill, " << outcome.shard.snapshot_recoveries
            << " snapshot restores\n";
  report.count("recovery.kills", outcome.shard.respawns);
  report.count("recovery.snapshot_restores",
               outcome.shard.snapshot_recoveries);
  report.num("recovery.total_seconds", outcome.shard.recovery_seconds);
  report.num("recovery.seconds_per_kill", per_kill);
  report.ceiling("recovery.seconds_per_kill", p.recovery_ceiling_seconds);

  // ---- Coordinator recovery time ---------------------------------------
  // The tentpole cost: SIGKILL the COORDINATOR right after a partial
  // proceed delivery and price the takeover — supervisor fork to the
  // takeover's first freshly committed barrier (manifest load, fence
  // claim, reattach window, adoption, resumed release). Values must
  // still be bit-identical to the undisturbed run, and the latency is a
  // self-enforced ceiling so a takeover that crawls (or silently
  // restarts from scratch) can never become a committed baseline.
  const std::filesystem::path run_dir =
      std::filesystem::temp_directory_path() /
      ("ipregel_bench_" + bench_name + "_coord");
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(ckpt_dir);
  std::filesystem::create_directories(run_dir);
  shard::ShardOptions coord;
  coord.num_shards = 2;
  if (p.tcp) coord.transport = shard::TransportKind::kTcp;
  coord.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  coord.checkpoint.every = 2;
  coord.checkpoint.directory = ckpt_dir.string();
  coord.retain_supersteps = 4;
  coord.supervisor.backoff_initial_seconds = 0.01;
  coord.recovery.directory = run_dir.string();
  coord.recovery.reattach_wait_seconds = 0.4;
  shard::CoordFault coord_kill;
  coord_kill.kind = shard::CoordFault::Kind::kSigkill;
  coord_kill.phase = shard::CoordFault::Phase::kProceed;
  coord_kill.superstep = p.coord_kill_superstep;
  coord.coord_faults = {coord_kill};
  std::vector<double> resumed;
  const auto takeover = shard::run_sharded_resilient(g, pr, coord, &resumed);
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(run_dir);
  if (!takeover.ok()) {
    std::cerr << "FAIL: coordinator-kill run errored: "
              << takeover.error->what() << "\n";
    return 1;
  }
  if (takeover.shard.coordinator_takeovers == 0) {
    std::cerr << "FAIL: the coordinator kill never fired\n";
    return 1;
  }
  for (std::size_t s = g.first_slot(); s < resumed.size(); ++s) {
    if (std::memcmp(&resumed[s], &undisturbed[s], sizeof(double)) != 0) {
      std::cerr << "FAIL: post-takeover values are not bit-identical at "
                   "slot "
                << s << "\n";
      return 1;
    }
  }
  const double coord_seconds = takeover.shard.coordinator_recovery_seconds;
  std::cout << "coordinator recovery: "
            << takeover.shard.coordinator_takeovers << " takeover(s), "
            << takeover.shard.adopted_workers << " worker(s) adopted, "
            << fmt3(coord_seconds) << " s resume-to-barrier\n";
  table.add_row({"coordinator-recovery", fmt3(coord_seconds), "-", "-",
                 fmt_count(takeover.shard.adopted_workers)});
  report.count("recovery.coordinator_takeovers",
               takeover.shard.coordinator_takeovers);
  report.count("recovery.adopted_workers", takeover.shard.adopted_workers);
  report.num("recovery.coordinator_recovery_seconds", coord_seconds);
  report.ceiling("recovery.coordinator_recovery_seconds",
                 p.coord_recovery_ceiling_seconds);

  table.print();
  std::string stem = "results/bench_shard";
  if (tcp) stem += "_tcp";
  if (smoke) stem += "_smoke";
  table.write_csv(stem + ".csv");
  report.write(stem + ".json");
  std::cout << "\nwrote " << stem << ".json\n";

  // Self-enforce the embedded gates so a collapsed run cannot be
  // committed as a baseline that would bless the collapse.
  const std::vector<std::string> violations = report.violations();
  if (!violations.empty()) {
    std::cerr << "FAIL: " << violations.size()
              << " gate violation(s):\n";
    for (const std::string& v : violations) {
      std::cerr << "  " << v << "\n";
    }
    return 1;
  }
  return 0;
}
