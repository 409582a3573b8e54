// The restartable R-MAT stream: exactly rmat()'s edges in rmat()'s order,
// replayable pass after pass — the beyond-RAM input path's generator.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_stream.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
#include "runtime/rng.hpp"
#include "store/store_writer.hpp"

namespace ipregel::graph {
namespace {

std::vector<Edge> drain(EdgeSource& source) {
  std::vector<Edge> out;
  Edge e;
  while (source.next(e)) {
    out.push_back(e);
  }
  return out;
}

/// The quadrant walk as RmatStream once wrote it: one double per level
/// and an if-chain. The stream now compares integers against thresholds
/// and must still yield this walk's edges for any a, b and c.
std::vector<Edge> oracle_rmat(unsigned scale, unsigned edge_factor,
                              const RmatOptions& options) {
  runtime::Xoshiro256 rng(options.seed);
  const vid_t n = vid_t{1} << scale;
  std::vector<vid_t> perm;
  if (options.scramble_ids) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), vid_t{0});
    for (vid_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<vid_t>(rng.next_below(i))]);
    }
  }
  const double ab = options.a + options.b;
  const double abc = ab + options.c;
  std::vector<Edge> out;
  const eid_t m = static_cast<eid_t>(edge_factor) * n;
  for (eid_t i = 0; i < m; ++i) {
    vid_t row = 0;
    vid_t col = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      row <<= 1;
      col <<= 1;
      if (r < options.a) {
        // top-left quadrant: neither bit set
      } else if (r < ab) {
        col |= 1;
      } else if (r < abc) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    if (options.scramble_ids) {
      row = perm[row];
      col = perm[col];
    }
    out.push_back(Edge{row, col});
  }
  return out;
}

/// A 64-bit digest of an edge sequence, order-sensitive.
std::uint64_t edge_hash(const std::vector<Edge>& edges) {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (const Edge& e : edges) {
    h = runtime::mix64(h ^ ((std::uint64_t{e.src} << 32) | e.dst));
  }
  return h;
}

TEST(RmatStream, MatchesTheIfChainOracle) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    double a;
    double b;
    double c;
  };
  const RmatOptions defaults;
  const Case cases[] = {
      {"defaults", defaults.a, defaults.b, defaults.c},
      {"a = 0", 0.0, defaults.b, defaults.c},
      {"a = 1", 1.0, defaults.b, defaults.c},
      {"b = 0", defaults.a, 0.0, defaults.c},
      {"a+b+c = 1 exactly", 0.25, 0.25, 0.5},
      {"a+b+c > 1", 0.6, 0.3, 0.4},
      {"negative b", defaults.a, -0.1, defaults.c},
      {"NaN c", defaults.a, defaults.b, kNaN},
      {"NaN a", kNaN, defaults.b, defaults.c},
      {"tiny a", 1e-300, defaults.b, defaults.c},
      {"infinite c", defaults.a, defaults.b, kInf},
      {"negative a", -0.5, 0.9, 0.3},
  };
  for (const Case& k : cases) {
    for (const unsigned scale : {0u, 1u, 5u, 12u}) {
      for (const bool scramble : {true, false}) {
        SCOPED_TRACE(std::string(k.name) + " scale " + std::to_string(scale) +
                     (scramble ? " scrambled" : " unscrambled"));
        const RmatOptions options{.a = k.a,
                                  .b = k.b,
                                  .c = k.c,
                                  .seed = 5 + scale,
                                  .scramble_ids = scramble};
        const unsigned ef = scale == 12 ? 2 : 8;
        RmatStream stream(scale, ef, options);
        const std::vector<Edge> want = oracle_rmat(scale, ef, options);
        const std::vector<Edge> got = drain(stream);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].src, want[i].src) << "edge " << i;
          ASSERT_EQ(got[i].dst, want[i].dst) << "edge " << i;
        }
      }
    }
  }
}

TEST(RmatStream, EdgesMatchThePinnedHash) {
  // Digests of rmat(12, 8, {.seed = 42}) as the if-chain generator wrote
  // it. A change here changes every R-MAT workload in the repo.
  EXPECT_EQ(edge_hash(rmat(12, 8, {.seed = 42}).edges()),
            0xE36E74DE467CA2EFULL);
  EXPECT_EQ(edge_hash(rmat(12, 8, {.seed = 42, .scramble_ids = false})
                          .edges()),
            0xF9B6BDD8B12389F6ULL);
}

TEST(RmatStream, MatchesRmatExactly) {
  for (const bool scramble : {true, false}) {
    SCOPED_TRACE(scramble ? "scrambled" : "unscrambled");
    const RmatOptions options{.seed = 42, .scramble_ids = scramble};
    const EdgeList list = rmat(7, 8, options);
    RmatStream stream(7, 8, options);
    ASSERT_EQ(stream.num_edges(), list.size());
    const std::vector<Edge> streamed = drain(stream);
    ASSERT_EQ(streamed.size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      ASSERT_EQ(streamed[i].src, list.edges()[i].src) << "edge " << i;
      ASSERT_EQ(streamed[i].dst, list.edges()[i].dst) << "edge " << i;
    }
  }
}

TEST(RmatStream, RestartReplaysTheIdenticalSequence) {
  RmatStream stream(6, 6, {.seed = 9});
  const std::vector<Edge> first = drain(stream);
  ASSERT_EQ(first.size(), stream.num_edges());
  // Exhausted: next() keeps returning false.
  Edge e;
  EXPECT_FALSE(stream.next(e));
  stream.restart();
  const std::vector<Edge> second = drain(stream);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(second[i].src, first[i].src) << "edge " << i;
    ASSERT_EQ(second[i].dst, first[i].dst) << "edge " << i;
  }
  // Restart mid-pass too: consuming a prefix must not perturb the replay.
  stream.restart();
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(stream.next(e));
  }
  stream.restart();
  const std::vector<Edge> third = drain(stream);
  ASSERT_EQ(third.size(), first.size());
  EXPECT_EQ(third.back().src, first.back().src);
  EXPECT_EQ(third.back().dst, first.back().dst);
}

TEST(RmatStream, RejectsOverflowingScale) {
  EXPECT_THROW(RmatStream(32, 1, {}), std::invalid_argument);
}

TEST(EdgeListSource, AdaptsAnEdgeListFaithfully) {
  const EdgeList list = grid_2d(4, 5, {.removal_fraction = 0.2, .seed = 3});
  EdgeListSource source(list);
  ASSERT_EQ(source.num_edges(), list.size());
  const std::vector<Edge> streamed = drain(source);
  ASSERT_EQ(streamed.size(), list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    ASSERT_EQ(streamed[i].src, list.edges()[i].src);
    ASSERT_EQ(streamed[i].dst, list.edges()[i].dst);
  }
  source.restart();
  EXPECT_EQ(drain(source).size(), list.size());
}

TEST(RmatStream, StreamedStoreBuildMatchesInRamBuild) {
  // End to end: generator stream -> streaming store build, byte-identical
  // to materialising the edge list and CSR in memory first.
  const unsigned scale = 7;
  const unsigned ef = 4;
  const RmatOptions options{.seed = 13};
  const CsrGraph g = CsrGraph::build(
      rmat(scale, ef, options),
      {.addressing = AddressingMode::kOffset, .build_in_edges = true});
  io::FaultyVfs vfs;
  store::write_store(g, "/ram.pages", &vfs, {.page_bytes = 128});
  RmatStream stream(scale, ef, options);
  store::write_store_streaming(stream, "/gen.pages", &vfs,
                               {.page_bytes = 128,
                                .build_in_edges = true,
                                .edge_ram_budget_bytes = 2048});
  EXPECT_EQ(vfs.read_all("/ram.pages"), vfs.read_all("/gen.pages"));
}

}  // namespace
}  // namespace ipregel::graph
