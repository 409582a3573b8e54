// Integrity-detector ablation: what does each silent-data-corruption
// detector tier cost per run, relative to a detector-free baseline?
//
//  - invariants: one O(V) reduction per barrier plus the program's
//    audit_check — cheap, and the only tier that understands the
//    *semantics* of the values.
//  - checksums: sectioned digests over values/halted/mailboxes/frontier.
//    The <= 10% acceptance bar is gated at the recommended production
//    cadence (checksum_every = 8); the every-barrier column is reported
//    but not gated, because its floor is structural: the two digest
//    passes per superstep (store after compute, verify before the next)
//    re-read the whole resident state, and on a memory-bandwidth-bound
//    core that re-read is a fixed fraction of compute's own traffic —
//    ~25-30% for pull PageRank, whose supersteps stream comparatively
//    few bytes per vertex, no matter how fast the hash is. The cadence
//    knob is the designed answer: it trades at-rest *coverage* (only
//    every k-th barrier's window is guarded) for throughput, and the
//    matrix's cadence test pins exactly that trade.
//  - shadow: recomputes a small vertex sample per superstep and compares
//    bit-for-bit — cost scales with samples, not |V|, so it should be
//    noise at the default 16.
//  - all: the three stacked, what a paranoid production run pays.
//
// Overhead columns are median(t_tier / t_off) - 1 of whole-run wall time
// over adjacent (baseline, tier) run pairs; "off (s)" is the median
// baseline run of the invariants pairs.
//
// A second table reports the throughput of the framework's one CRC-32
// (integrity::crc32), which seals every page, ring frame, wire frame and
// checkpoint, at the buffer sizes those seals see.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "benchlib/reporting.hpp"
#include "benchlib/workloads.hpp"
#include "core/runner.hpp"
#include "integrity/crc32.hpp"
#include "integrity/options.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace ipregel;         // NOLINT(google-build-using-namespace)
using namespace ipregel::bench;  // NOLINT(google-build-using-namespace)

/// Back-to-back (baseline, tier) run pairs per overhead figure.
constexpr int kPairs = 7;

template <typename Program>
double run_seconds(const Workload& w, Program program, VersionId version,
                   runtime::ThreadPool& pool,
                   const integrity::IntegrityOptions& tiers) {
  EngineOptions options;
  options.integrity = tiers;
  return run_version(w.graph, program, version, options, &pool).seconds;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// A tier's cost as the median, over kPairs adjacent (baseline, tier) run
/// pairs, of t_tier / t_off. Both runs of a pair see the same machine
/// state, so contention that drifts over seconds cancels inside each
/// ratio; the median drops the pairs a scheduling hiccup hit; and the
/// order inside a pair alternates so neither side always runs warmer.
/// (Comparing the best of three runs per configuration instead made the
/// 10% gate fail on unchanged code about half the time on 40-180 ms
/// baselines.)
struct Overhead {
  double off_seconds = 0.0;  ///< median baseline run
  double ratio = 1.0;        ///< median t_tier / t_off
};

template <typename Program>
Overhead paired_overhead(const Workload& w, Program program,
                         VersionId version, runtime::ThreadPool& pool,
                         const integrity::IntegrityOptions& tier) {
  std::vector<double> offs;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double t_off = 0.0;
    double t_tier = 0.0;
    if (pair % 2 == 0) {
      t_off = run_seconds(w, program, version, pool, {});
      t_tier = run_seconds(w, program, version, pool, tier);
    } else {
      t_tier = run_seconds(w, program, version, pool, tier);
      t_off = run_seconds(w, program, version, pool, {});
    }
    offs.push_back(t_off);
    ratios.push_back(t_off > 0.0 ? t_tier / t_off : 1.0);
  }
  return {median(offs), median(ratios)};
}

std::string fmt_overhead(double ratio) {
  const double pct = (ratio - 1.0) * 100.0;
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << (pct >= 0.0 ? "+" : "") << pct << "%";
  return os.str();
}

template <typename Program>
void rows(Table& table, const std::string& app, const Workload& w,
          Program program, VersionId version, runtime::ThreadPool& pool,
          double* worst_every1, double* worst_every8) {
  integrity::IntegrityOptions inv;
  inv.invariants = true;
  integrity::IntegrityOptions cksum;
  cksum.checksums = true;
  integrity::IntegrityOptions cksum8;
  cksum8.checksums = true;
  cksum8.checksum_every = 8;
  integrity::IntegrityOptions shadow;
  shadow.shadow = true;
  integrity::IntegrityOptions all;
  all.invariants = true;
  all.checksums = true;
  all.shadow = true;

  // A throwaway warm-up run so the first measured configuration does not
  // also pay the page-cache / allocator cold start.
  (void)run_seconds(w, program, version, pool, {});

  const Overhead o_inv = paired_overhead(w, program, version, pool, inv);
  const Overhead o_ck = paired_overhead(w, program, version, pool, cksum);
  const Overhead o_ck8 = paired_overhead(w, program, version, pool, cksum8);
  const Overhead o_sh = paired_overhead(w, program, version, pool, shadow);
  const Overhead o_all = paired_overhead(w, program, version, pool, all);
  if (worst_every1 != nullptr) {
    *worst_every1 = std::max(*worst_every1, o_ck.ratio - 1.0);
  }
  if (worst_every8 != nullptr) {
    *worst_every8 = std::max(*worst_every8, o_ck8.ratio - 1.0);
  }
  table.add_row({app, std::string(version_name(version)), w.name,
                 fmt_seconds(o_inv.off_seconds), fmt_overhead(o_inv.ratio),
                 fmt_overhead(o_ck.ratio), fmt_overhead(o_ck8.ratio),
                 fmt_overhead(o_sh.ratio), fmt_overhead(o_all.ratio)});
}

/// Where the CRC throughput loop stores its result, so it is not elided.
volatile std::uint32_t g_crc_sink = 0;

/// GB/s of integrity::crc32 over one `bytes`-long buffer: best of five
/// passes of ~64 MiB each, every call seeded with the last result.
double crc32_gbps(std::size_t bytes) {
  std::vector<std::uint8_t> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::size_t reps =
      std::max<std::size_t>(1, (std::size_t{64} << 20) / bytes);
  double best = std::numeric_limits<double>::infinity();
  std::uint32_t crc = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      crc = integrity::crc32(buf.data(), bytes, crc);
    }
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  g_crc_sink = crc;
  return static_cast<double>(reps * bytes) / best * 1e-9;
}

void crc32_table() {
  Table table("CRC-32 throughput (integrity::crc32, slicing-by-16)",
              {"buffer", "GB/s"});
  const std::pair<const char*, std::size_t> sizes[] = {
      {"64 B", 64},
      {"4 KiB", std::size_t{4} << 10},
      {"64 KiB", std::size_t{64} << 10},
      {"1 MiB", std::size_t{1} << 20}};
  for (const auto& [name, bytes] : sizes) {
    std::ostringstream gbps;
    gbps.precision(2);
    gbps << std::fixed << crc32_gbps(bytes);
    table.add_row({name, gbps.str()});
  }
  table.print();
  table.write_csv("results/bench_crc32.csv");
}

}  // namespace

int main() {
  crc32_table();
  runtime::ThreadPool pool;
  std::cout << "iPregel integrity-detector ablation (threads = "
            << pool.size() << ", shadow samples = "
            << integrity::IntegrityOptions{}.shadow_samples << ")\n";
  Table table("Per-tier overhead vs detector-free baseline",
              {"application", "version", "graph", "off (s)", "invariants",
               "checksums", "cksum/8", "shadow", "all"});

  // The <= 10% acceptance bar applies to the dense workloads, where a
  // superstep does Omega(V) compute the digest passes can amortise
  // against. Road-graph SSSP is the anti-workload ON PURPOSE: its
  // sub-millisecond wavefront supersteps touch a few hundred vertices
  // while the checksum tier still digests all |V| of them — no cadence
  // makes that fit 10%, which is exactly why checksum_every exists and
  // why its row stays in the table (and CSV) un-gated: it quantifies the
  // pathology instead of hiding it.
  double worst_every1 = 0.0;
  double worst_every8 = 0.0;
  const Workload wiki = make_wiki_like();
  const Workload road = make_road_like();
  rows(table, "PageRank", wiki, apps::PageRank{.rounds = kPageRankRounds},
       {CombinerKind::kSpinlockPush, false}, pool, &worst_every1,
       &worst_every8);
  rows(table, "PageRank", wiki, apps::PageRank{.rounds = kPageRankRounds},
       {CombinerKind::kPull, false}, pool, &worst_every1, &worst_every8);
  rows(table, "Hashmin", wiki, apps::Hashmin{},
       {CombinerKind::kSpinlockPush, true}, pool, &worst_every1,
       &worst_every8);
  rows(table, "SSSP", road, apps::Sssp{.source = kSsspSource},
       {CombinerKind::kSpinlockPush, true}, pool, nullptr, nullptr);
  table.print();
  table.write_csv("results/bench_integrity.csv");

  std::cout << "\nworst checksum-tier overhead on the dense (wiki-like) "
               "workloads: "
            << fmt_overhead(1.0 + worst_every8)
            << " at the recommended production cadence (checksum_every = 8; "
               "acceptance bar: +10.0%), "
            << fmt_overhead(1.0 + worst_every1)
            << " at every-barrier coverage (reported, not gated)\n"
            << "expected: invariants and shadow are noise; checksums are "
               "the priciest tier and every-8 buys most of it back; the "
               "road-SSSP row shows the short-superstep pathology the "
               "cadence knob exists for (un-gated by design).\n";
  return worst_every8 > 0.10 ? 1 : 0;
}
