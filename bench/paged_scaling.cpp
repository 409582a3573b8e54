// Slowdown curve of the beyond-RAM paged mode: PageRank on the wiki-like
// R-MAT graph through the streaming runner under a descending cache-budget
// ladder (all edge bytes resident, then 1/2, 1/4, 1/8), against the
// in-RAM engine baseline.
//
// Results go to results/bench_paged{,_smoke}.{csv,json}; the JSON feeds
// scripts/check_bench_regression.py. The embedded gates are correctness,
// not speed: every arm's values must be BIT-identical to the engine's
// (values_match floor), the cache may never hold more bytes than its
// ledger budget (max_overrun ceiling of zero), and the smallest arm must
// actually be beyond-RAM (streamed bytes >= 4x its budget). A paged run
// that answers differently, or overruns its reservation, exits nonzero
// and can never become a committed baseline. One gate is a count, so it
// holds on a noisy host: each worker walks edges through a cursor that
// pins once per page it moves onto, so the full-budget arm may make at
// most threads x streamed pages x supersteps pins (per-vertex pinning
// makes ~100x that). --smoke shrinks the graph and page size for the CI
// smoke test.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "benchlib/reporting.hpp"
#include "benchlib/workloads.hpp"
#include "core/engine.hpp"
#include "io/vfs.hpp"
#include "runtime/timer.hpp"
#include "store/page_cache.hpp"
#include "store/paged_graph.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"
#include "store/streaming_runner.hpp"

namespace {

using namespace ipregel;         // NOLINT(google-build-using-namespace)
using namespace ipregel::bench;  // NOLINT(google-build-using-namespace)

struct Params {
  bool smoke = false;
  std::size_t rounds = 10;
  std::size_t page_bytes = std::size_t{1} << 16;
  std::size_t threads = 4;
};

struct Arm {
  std::string name;
  double fraction = 1.0;  ///< cache budget as a fraction of streamed bytes
};

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: paged_scaling [--smoke]\n";
      return 2;
    }
  }
  Params p;
  p.smoke = smoke;
  if (smoke) {
    p.rounds = 6;
    p.page_bytes = std::size_t{1} << 12;
    p.threads = 2;
  }

  const Workload w =
      make_wiki_like(smoke ? BenchSize::kSmall : BenchSize::kDefault);
  const graph::CsrGraph& g = w.graph;
  apps::PageRank pr;
  pr.rounds = p.rounds;
  std::cout << "iPregel paged scaling (" << w.name
            << (smoke ? ", smoke" : "") << ", " << p.rounds
            << " PageRank rounds, " << p.page_bytes << " B pages)\n";

  const std::string bench_name =
      smoke ? "paged_scaling_smoke" : "paged_scaling";
  JsonReport report(bench_name);
  report.text("graph", w.name);
  report.text("mode", smoke ? "smoke" : "full");
  report.count("rounds", p.rounds);
  report.count("page_bytes", p.page_bytes);
  Table table("PageRank wall clock by cache budget",
              {"arm", "budget_bytes", "seconds", "slowdown", "pins",
               "miss_rate", "evictions", "ladder_level"});

  // ---- In-RAM engine baseline ------------------------------------------
  Engine<apps::PageRank, CombinerKind::kPull, false> engine(
      g, pr, EngineOptions{.threads = p.threads});
  double engine_seconds = 0.0;
  {
    runtime::Timer timer;
    (void)engine.run();
    engine_seconds = timer.seconds();
  }
  table.add_row({"in-ram engine", "-", fmt3(engine_seconds), "1.0x", "-",
                 "-", "-", "-"});
  report.num("engine.seconds", engine_seconds);

  // ---- Write the paged store -------------------------------------------
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("ipregel_" + bench_name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "graph.pages").string();
  {
    runtime::Timer timer;
    store::write_store(g, path, nullptr,
                       {.page_bytes = p.page_bytes});
    report.num("store.write_seconds", timer.seconds());
  }

  const store::PagedStore store(io::real_vfs(), path);
  const store::SectionRef& out_targets =
      store.superblock().section(store::Section::kOutTargets);
  const store::SectionRef& in_targets =
      store.superblock().section(store::Section::kInTargets);
  const std::uint64_t streamed =
      out_targets.payload_bytes + in_targets.payload_bytes;
  const std::uint64_t streamed_pages =
      out_targets.num_pages + in_targets.num_pages;
  report.count("store.streamed_bytes", streamed);
  report.count("store.streamed_pages", streamed_pages);
  std::cout << "streamed sections: " << streamed << " B in "
            << store.num_pages() << " pages\n";

  // ---- Budget ladder ----------------------------------------------------
  // Floors: the budget must at least admit one frame per thread plus one
  // for read-ahead, or the arm measures budget exhaustion, not paging.
  const std::uint64_t min_budget = (p.threads + 1) * p.page_bytes;
  const std::vector<Arm> arms = {{"budget_full", 1.0},
                                 {"budget_half", 0.5},
                                 {"budget_quarter", 0.25},
                                 {"budget_eighth", 0.125}};
  std::size_t max_overrun = 0;
  std::size_t full_budget_supersteps = 0;
  bool all_match = true;
  double smallest_budget = 0.0;
  for (const Arm& arm : arms) {
    const std::size_t budget = static_cast<std::size_t>(std::max<std::uint64_t>(
        min_budget,
        static_cast<std::uint64_t>(static_cast<double>(streamed) *
                                   arm.fraction)));
    smallest_budget = static_cast<double>(budget);
    store::PageCache cache(store, {.budget_bytes = budget});
    store::PagedGraph pg(store, cache);
    store::StreamingRunner<apps::PageRank> runner(pg, pr,
                                                  {.threads = p.threads});
    runtime::Timer timer;
    const store::PagedRunResult out = runner.run(store::StreamMode::kPull);
    const double seconds = timer.seconds();

    // Correctness is part of the bench contract: bit-identical to the
    // engine, byte for byte.
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      if (std::memcmp(&runner.values()[s], &engine.values()[s],
                      sizeof(double)) != 0) {
        std::cerr << "FAIL: " << arm.name
                  << " diverges from the engine at slot " << s << "\n";
        all_match = false;
        break;
      }
    }
    const std::size_t overrun =
        out.cache.peak_resident_bytes > budget
            ? out.cache.peak_resident_bytes - budget
            : 0;
    max_overrun = std::max(max_overrun, overrun);
    const std::size_t pins = out.cache.hits + out.cache.misses;
    const double accesses = static_cast<double>(pins);
    const double miss_rate =
        accesses > 0.0 ? static_cast<double>(out.cache.misses) / accesses
                       : 0.0;
    const double slowdown =
        engine_seconds > 0.0 ? seconds / engine_seconds : 0.0;
    table.add_row({arm.name, std::to_string(budget), fmt3(seconds),
                   fmt3(slowdown) + "x", fmt_count(pins), fmt3(miss_rate),
                   fmt_count(out.cache.evictions),
                   std::to_string(out.cache.level)});
    report.num(arm.name + ".seconds", seconds);
    report.num(arm.name + ".slowdown", slowdown);
    report.num(arm.name + ".miss_rate", miss_rate);
    report.count(arm.name + ".evictions", out.cache.evictions);
    report.count(arm.name + ".pins", pins);
    report.count(arm.name + ".ladder_level", out.cache.level);
    if (arm.fraction == 1.0) {
      full_budget_supersteps = out.run.supersteps;
    }
  }
  std::filesystem::remove_all(dir);

  // ---- Embedded gates ---------------------------------------------------
  report.num("values_match", all_match ? 1.0 : 0.0);
  report.floor("values_match", 1.0);
  report.num("cache.max_overrun_bytes", static_cast<double>(max_overrun));
  report.ceiling("cache.max_overrun_bytes", 0.0);
  report.ceiling("budget_full.pins",
                 static_cast<double>(p.threads * streamed_pages *
                                     full_budget_supersteps));
  // The smallest arm must be genuinely beyond-RAM: streamed bytes at
  // least 4x its cache budget (unless the min-frames floor dominates on
  // a tiny smoke graph, in which case the ratio is reported but the
  // claim is carried by the full run).
  const double beyond_ram_ratio =
      smallest_budget > 0.0 ? static_cast<double>(streamed) / smallest_budget
                            : 0.0;
  report.num("beyond_ram_ratio", beyond_ram_ratio);
  if (!smoke) {
    report.floor("beyond_ram_ratio", 4.0);
  }

  table.print();
  const std::string stem =
      smoke ? "results/bench_paged_smoke" : "results/bench_paged";
  table.write_csv(stem + ".csv");
  report.write(stem + ".json");
  std::cout << "\nwrote " << stem << ".json\n";

  // Self-enforce the embedded gates so a collapsed run cannot be
  // committed as a baseline that would bless the collapse.
  const std::vector<std::string> violations = report.violations();
  if (!violations.empty()) {
    std::cerr << "FAIL: " << violations.size() << " gate violation(s):\n";
    for (const std::string& v : violations) {
      std::cerr << "  " << v << "\n";
    }
    return 1;
  }
  return 0;
}
