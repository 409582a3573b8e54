// Reproduces the paper's Figure 7: runtime of every applicable iPregel
// version (3 combiners x {with, without} selection bypass) for PageRank,
// Hashmin and SSSP on the wiki-like and road-like graphs.
//
// Expected shape (paper section 7.2):
//  - PageRank: mutex -> spinlock drops ~30%; broadcast halves spinlock and
//    is the best version (all vertices stay active: optimal pull ratio).
//  - Hashmin/SSSP: spinlock < mutex < broadcast (without bypass); every
//    combiner improves with the bypass; spinlock+bypass is always best and
//    broadcast-without-bypass always worst.
//  - The bypass gap explodes on the road-like graph (low density, few
//    active vertices): paper reports 20x for Hashmin and 1,400x for SSSP.
//
// The six paper versions run pinned to their fixed behaviour
// (EngineOptions::fixed_direction). A seventh "adaptive" row per
// always-halting app runs spinlock+bypass with direction optimisation,
// the engine's default: dense supersteps pull, sparse ones push. Both
// graphs go into one table and one CSV, written once per run.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "benchlib/reporting.hpp"
#include "benchlib/workloads.hpp"
#include "core/runner.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace ipregel;          // NOLINT(google-build-using-namespace)
using namespace ipregel::bench;   // NOLINT(google-build-using-namespace)

bool precise_mode() {
  return std::getenv("IPREGEL_BENCH_PRECISE") != nullptr;
}

/// Runs one (program, version) cell, optionally with the paper's
/// repeat-until-1%-margin methodology (IPREGEL_BENCH_PRECISE=1).
/// `adaptive` selects the direction-optimising engine instead of the
/// version's fixed one, and prints the run's density profile: the share
/// of vertices executed and of edges sent, with the direction, every 50th
/// superstep of a long run (every superstep of a short one).
template <typename Program>
void bench_cell(Table& table, const std::string& graph,
                const std::string& app, const graph::CsrGraph& g,
                Program program, VersionId version, bool adaptive,
                runtime::ThreadPool& pool, double& best_seconds,
                std::string& best_name) {
  EngineOptions options;
  options.fixed_direction = !adaptive;
  options.collect_superstep_stats = adaptive;
  RunResult last;
  double seconds = 0.0;
  if (precise_mode()) {
    const auto measured = runtime::run_until_precise(
        [&] {
          last = run_version(g, program, version, options, &pool);
          return last.seconds;
        },
        {.min_runs = 5, .max_runs = 30, .target_relative_margin = 0.01});
    seconds = measured.summary.mean;
  } else {
    last = run_version(g, program, version, options, &pool);
    seconds = last.seconds;
  }
  const std::string name =
      adaptive ? "adaptive" : std::string(version_name(version));
  if (adaptive) {
    const std::size_t stride = last.per_superstep.size() > 100 ? 50 : 1;
    std::cout << "  density profile, " << app << " adaptive (superstep: "
              << "executed/|V|, sent/|E|, direction)\n";
    for (std::size_t i = 0; i < last.per_superstep.size(); i += stride) {
      const SuperstepStats& st = last.per_superstep[i];
      std::printf("    %5zu: %.3f %.4f %s\n", i,
                  static_cast<double>(st.executed_vertices) /
                      static_cast<double>(g.num_vertices()),
                  static_cast<double>(st.messages_sent) /
                      static_cast<double>(g.num_edges()),
                  std::string(to_string(st.direction)).c_str());
    }
  }
  table.add_row({graph, app, name, fmt_seconds(seconds),
                 std::to_string(last.supersteps),
                 fmt_count(last.total_messages)});
  if (seconds < best_seconds) {
    best_seconds = seconds;
    best_name = name;
  }
}

template <typename Program>
void bench_app(Table& table, const std::string& graph, const std::string& app,
               const graph::CsrGraph& g, Program program,
               runtime::ThreadPool& pool) {
  double best_seconds = 1e300;
  std::string best_name;
  for (const VersionId v : applicable_versions<Program>()) {
    bench_cell(table, graph, app, g, program, v, false, pool, best_seconds,
               best_name);
  }
  if constexpr (Program::broadcast_only && Program::always_halts) {
    bench_cell(table, graph, app, g, program,
               VersionId{CombinerKind::kSpinlockPush, true}, true, pool,
               best_seconds, best_name);
  }
  std::cout << "  -> best version for " << app << ": " << best_name << " ("
            << fmt_seconds(best_seconds) << " s)\n";
}

void run_workload(Table& table, const Workload& w,
                  runtime::ThreadPool& pool) {
  std::cout << "\n== " << w.name << " [stand-in for " << w.paper_name
            << "] ==\n";
  bench_app(table, w.name, "PageRank", w.graph,
            apps::PageRank{.rounds = kPageRankRounds}, pool);
  bench_app(table, w.name, "Hashmin", w.graph, apps::Hashmin{}, pool);
  bench_app(table, w.name, "SSSP", w.graph,
            apps::Sssp{.source = kSsspSource}, pool);
}

}  // namespace

int main() {
  runtime::ThreadPool pool;
  std::cout << "iPregel Fig. 7 reproduction (threads = " << pool.size()
            << (precise_mode() ? ", precise mode" : "") << ")\n";
  Table table("Figure 7 analog — iPregel version runtimes (threads = " +
                  std::to_string(pool.size()) + ")",
              {"graph", "application", "version", "runtime (s)",
               "supersteps", "messages"});
  run_workload(table, make_wiki_like(), pool);
  run_workload(table, make_road_like(), pool);
  table.print();
  table.write_csv("results/bench_fig7.csv");
  return 0;
}
