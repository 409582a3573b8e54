#pragma once

// The seeded graph draw the differential tests share: R-MAT, a symmetric
// R-MAT, a lattice with holes, in- and out-stars, a path, isolated
// vertices over a wide id range, and the empty graph. One seed fixes every
// shape and size, so IPREGEL_CHAOS_SEED replays a failing draw exactly.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "runtime/rng.hpp"
#include "test_util.hpp"

namespace ipregel::testing {

struct Case {
  std::string name;
  graph::CsrGraph g;
  bool symmetric = false;
};

inline std::vector<Case> draw_graphs(std::uint64_t seed) {
  runtime::SplitMix64 rng(seed);
  const auto below = [&](std::uint64_t n) {
    return static_cast<graph::vid_t>(rng.next() % n);
  };
  std::vector<Case> out;
  const auto add = [&](std::string name, graph::EdgeList e, bool symmetric) {
    out.push_back({std::move(name), make_graph(e), symmetric});
  };
  const unsigned scale = 5 + below(4);
  add("rmat_s" + std::to_string(scale),
      graph::rmat(scale, 2 + below(8), {.seed = rng.next()}), false);
  graph::EdgeList sym = graph::rmat(5 + below(3), 3, {.seed = rng.next()});
  sym.symmetrize();
  add("rmat_sym", std::move(sym), true);
  const graph::vid_t rows = 3 + below(25);
  const graph::vid_t cols = 3 + below(25);
  add("lattice_" + std::to_string(rows) + "x" + std::to_string(cols),
      graph::grid_2d(rows, cols,
                     {.removal_fraction = 0.1 * static_cast<double>(below(3)),
                      .seed = rng.next()}),
      true);
  const graph::vid_t star = 2 + below(60);
  add("star_" + std::to_string(star), graph::star_graph(star, true), true);
  add("star_out_" + std::to_string(star), graph::star_graph(star, false),
      false);
  add("path_" + std::to_string(star), graph::path_graph(2 + below(80)),
      false);
  // Isolated vertices: a few symmetric links scattered over a wide id
  // range, so most ids in between carry no edge at all.
  std::vector<graph::Edge> sparse;
  const graph::vid_t span = 20 + below(100);
  for (graph::vid_t i = 0, n = 1 + below(6); i < n; ++i) {
    const graph::vid_t u = below(span);
    const graph::vid_t v = below(span);
    if (u != v) {
      sparse.push_back({u, v});
      sparse.push_back({v, u});
    }
  }
  sparse.push_back({0, span});
  sparse.push_back({span, 0});
  add("isolated_" + std::to_string(span), graph::EdgeList(std::move(sparse)),
      true);
  add("empty", graph::EdgeList{}, true);
  return out;
}

}  // namespace ipregel::testing
