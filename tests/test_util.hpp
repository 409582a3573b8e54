#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "ft/recovery_dir.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace ipregel::testing {

/// Path of the newest snapshot in `dir` (basename "snapshot") that fully
/// validates, or nullopt when there is none.
inline std::optional<std::string> newest_snapshot(const std::string& dir) {
  const auto found = ft::SnapshotDirectory(dir).newest_valid();
  if (!found.has_value()) {
    return std::nullopt;
  }
  return found->path;
}

/// Builds a CSR with in-edges (so every combiner version can run) under the
/// given addressing mode.
inline graph::CsrGraph make_graph(
    const graph::EdgeList& edges,
    graph::AddressingMode addressing = graph::AddressingMode::kOffset) {
  return graph::CsrGraph::build(
      edges, graph::CsrBuildOptions{.addressing = addressing,
                                    .build_in_edges = true,
                                    .keep_weights = true});
}

/// Runs `program` under every applicable framework version and checks that
/// each produces exactly `expected` (slot-indexed). `tag` labels failures.
template <typename Program>
void expect_all_versions_match(
    const graph::CsrGraph& g, Program program,
    const std::vector<typename Program::value_type>& expected,
    const std::string& tag) {
  for (const VersionId v : applicable_versions<Program>()) {
    std::vector<typename Program::value_type> values;
    const RunResult result =
        run_version(g, program, v, EngineOptions{}, nullptr, &values);
    ASSERT_EQ(values.size(), expected.size())
        << tag << " / " << version_name(v);
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      ASSERT_EQ(values[s], expected[s])
          << tag << " / " << version_name(v) << " at slot " << s << " (id "
          << g.id_of(s) << "), after " << result.supersteps << " supersteps";
    }
  }
}

/// Same, with approximate comparison for floating-point programs.
template <typename Program>
void expect_all_versions_near(
    const graph::CsrGraph& g, Program program,
    const std::vector<typename Program::value_type>& expected,
    double tolerance, const std::string& tag) {
  for (const VersionId v : applicable_versions<Program>()) {
    std::vector<typename Program::value_type> values;
    run_version(g, program, v, EngineOptions{}, nullptr, &values);
    ASSERT_EQ(values.size(), expected.size())
        << tag << " / " << version_name(v);
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      ASSERT_NEAR(values[s], expected[s], tolerance)
          << tag << " / " << version_name(v) << " at slot " << s << " (id "
          << g.id_of(s) << ")";
    }
  }
}

}  // namespace ipregel::testing
