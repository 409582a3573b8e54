// Checkpoint/restart walkthrough: run SSSP with checkpointing on, crash
// it mid-run with the deterministic fault injector, then recover from the
// newest snapshot and verify the result matches an uninterrupted run.
//
//   $ ./examples/checkpoint_restart
//
// Everything here is driven through EngineOptions — the same program and
// the same run_version call, with fault tolerance switched on by filling
// in options.checkpoint (and, for the demo, options.fault).

#include <cstdio>
#include <filesystem>
#include <vector>

#include "ipregel.hpp"
#include "apps/sssp.hpp"

int main() {
  using namespace ipregel;  // NOLINT(google-build-using-namespace)

  // A grid road network: a long SSSP wavefront, many supersteps.
  const graph::CsrGraph g = graph::CsrGraph::build(
      graph::grid_2d(48, 48, {.removal_fraction = 0.05, .seed = 4}),
      {.addressing = graph::AddressingMode::kDirect,
       .build_in_edges = false});
  const apps::Sssp program{.source = 0};
  const VersionId version{CombinerKind::kSpinlockPush,
                          /*selection_bypass=*/true};

  // 1. The reference: an uninterrupted run.
  std::vector<std::uint32_t> expected;
  const RunResult clean =
      run_version(g, program, version, {}, nullptr, &expected);
  std::printf("clean run:     %zu supersteps\n", clean.supersteps);

  // 2. A run with checkpointing on — and a planted crash.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ipregel_ckpt_example")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  EngineOptions options;
  options.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  options.checkpoint.every = 5;        // snapshot every 5 supersteps
  options.checkpoint.mode = ft::CheckpointMode::kLightweight;
  options.checkpoint.directory = dir;  // "<dir>/snapshot.<N>.ipsnap"
  options.fault.superstep = clean.supersteps / 2;  // crash mid-run
  options.fault.after_compute_calls = 10;

  try {
    (void)run_version(g, program, version, options);
    std::printf("the planted fault did not trip?\n");
    return 1;
  } catch (const ft::InjectedFault& crash) {
    std::printf("crashed:       %s\n", crash.what());
  }

  // 3. Recovery: resume from the newest snapshot. The directory walk loads
  // it and checks its format version and per-section checksums; the engine
  // checks the loaded snapshot against the run (graph and program
  // fingerprints) and — since this is a lightweight snapshot — regenerates
  // the in-flight messages from the restored distances via Sssp::resend.
  const auto snapshot = ft::SnapshotDirectory(dir).newest_valid();
  if (!snapshot) {
    std::printf("no snapshot found\n");
    return 1;
  }
  std::printf("recovering:    %s\n", snapshot->path.c_str());

  std::vector<std::uint32_t> recovered;
  const RunResult resumed = run_version(g, program, version, {}, nullptr,
                                        &recovered, &snapshot->snapshot);
  std::printf("resumed run:   %zu supersteps total (re-ran %zu)\n",
              resumed.supersteps,
              resumed.supersteps - snapshot->superstep);

  // 4. The recovered result must be identical to the uninterrupted one.
  std::size_t mismatches = 0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    if (recovered[s] != expected[s]) {
      ++mismatches;
    }
  }
  std::filesystem::remove_all(dir);
  if (mismatches != 0) {
    std::printf("FAILED: %zu vertices diverged after recovery\n",
                mismatches);
    return 1;
  }
  std::printf("verified:      recovered distances identical on all %zu "
              "vertices\n",
              g.num_vertices());
  return 0;
}
