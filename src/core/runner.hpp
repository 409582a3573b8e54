#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "ft/snapshot.hpp"

namespace ipregel {

/// Runs `program` on `graph` under the framework version selected at
/// *runtime* by `version`, returning the run statistics and (optionally)
/// the final vertex values.
///
/// The engine itself selects its version at compile time (the paper's
/// compile-flag multi-version design); this helper instantiates all
/// versions that are valid for `Program` and dispatches among them, which
/// is what the benchmark harness and the examples need to sweep the Fig. 7
/// version matrix from one binary. Requesting a version the program cannot
/// support (pull without broadcast-only, bypass without always-halts)
/// throws std::invalid_argument — the runtime analogue of the engine's
/// static_asserts.
///
/// When `resume` is non-null, the run resumes from that loaded snapshot
/// instead of starting at superstep 0. The engine's restore_state checks
/// it against the checkpoint contract (ft/checkpoint_contract.hpp) before
/// touching any state: the graph and program fingerprints must match, and
/// a heavyweight snapshot must have been captured under a version with the
/// same mailbox layout (same combiner family — the two push combiners are
/// interchangeable — and the same bypass setting). Lightweight snapshots
/// resume under any valid version. Mismatches throw ft::SnapshotMismatch.
template <VertexProgram Program>
RunResult run_version(
    const graph::CsrGraph& graph, Program program, VersionId version,
    EngineOptions options = {}, runtime::ThreadPool* pool = nullptr,
    std::vector<typename Program::value_type>* out_values = nullptr,
    const ft::EngineSnapshot* resume = nullptr) {
  const auto execute = [&](auto& engine) {
    // One engine.values() materialisation, shared by both paths; reserve
    // before inserting so a caller-reused vector never over-allocates
    // through assign's growth policy.
    RunResult result = resume != nullptr ? engine.run_from(*resume)
                                         : engine.run();
    if (out_values != nullptr) {
      const auto values = engine.values();
      out_values->clear();
      out_values->reserve(values.size());
      out_values->insert(out_values->end(), values.begin(), values.end());
    }
    return result;
  };

  const auto run_with = [&]<CombinerKind K, bool B>() {
    Engine<Program, K, B> engine(graph, std::move(program), options, pool);
    return execute(engine);
  };

  switch (version.combiner) {
    case CombinerKind::kMutexPush:
      if (version.selection_bypass) {
        if constexpr (Program::always_halts) {
          return run_with
              .template operator()<CombinerKind::kMutexPush, true>();
        }
        break;
      }
      return run_with.template operator()<CombinerKind::kMutexPush, false>();
    case CombinerKind::kSpinlockPush:
      if (version.selection_bypass) {
        if constexpr (Program::always_halts) {
          return run_with
              .template operator()<CombinerKind::kSpinlockPush, true>();
        }
        break;
      }
      return run_with
          .template operator()<CombinerKind::kSpinlockPush, false>();
    case CombinerKind::kPull:
      if constexpr (Program::broadcast_only) {
        if (version.selection_bypass) {
          if constexpr (Program::always_halts) {
            return run_with.template operator()<CombinerKind::kPull, true>();
          }
          break;
        }
        return run_with.template operator()<CombinerKind::kPull, false>();
      }
      break;
  }
  throw std::invalid_argument(
      std::string("version '") + std::string(version_name(version)) +
      "' is not applicable to this program (broadcast_only=" +
      (Program::broadcast_only ? "true" : "false") +
      ", always_halts=" + (Program::always_halts ? "true" : "false") + ")");
}

/// run_version with failures surfaced as data: a compute() exception,
/// watchdog trip, memory-budget breach, injected fault, or snapshot/
/// program mismatch returns a RunOutcome whose error carries the
/// failure's kind and superstep/thread/vertex context, instead of
/// throwing. A mismatched snapshot maps to the non-retryable
/// kSnapshotMismatch: the serving layer must report it as a permanent
/// failure, not shed-and-retry it. Other configuration errors
/// (inapplicable version) still throw — they are caller bugs, not run
/// failures, and retrying them cannot help.
///
/// Because each call constructs a fresh engine, a failed run leaves no
/// torn state behind for the caller: the next call starts clean (or from a
/// snapshot via `resume`) — the entry point ft::supervise builds its retry
/// loop on.
template <VertexProgram Program>
RunOutcome run_version_checked(
    const graph::CsrGraph& graph, Program program, VersionId version,
    EngineOptions options = {}, runtime::ThreadPool* pool = nullptr,
    std::vector<typename Program::value_type>* out_values = nullptr,
    const ft::EngineSnapshot* resume = nullptr) {
  RunOutcome out;
  try {
    out.result = run_version(graph, std::move(program), version, options,
                             pool, out_values, resume);
  } catch (const RunError& e) {
    out.error = e;
  } catch (const ft::InjectedFault& e) {
    out.error = RunError(RunErrorKind::kInjectedFault, e.superstep(), 0,
                         RunError::kNoVertex, e.what());
  } catch (const ft::SnapshotMismatch& e) {
    out.error = RunError(RunErrorKind::kSnapshotMismatch, 0, 0,
                         RunError::kNoVertex, e.what());
  }
  return out;
}

/// The subset of kAllVersions a program supports.
template <VertexProgram Program>
[[nodiscard]] std::vector<VersionId> applicable_versions() {
  std::vector<VersionId> out;
  for (const VersionId v : kAllVersions) {
    if (v.selection_bypass && !Program::always_halts) {
      continue;
    }
    if (v.combiner == CombinerKind::kPull && !Program::broadcast_only) {
      continue;
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace ipregel
