#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "runtime/rng.hpp"

namespace ipregel::graph {

using runtime::Xoshiro256;

namespace {

/// The integer form of the test r < x for r = k * 2^-53, k in [0, 2^53):
/// k * 2^-53 < x exactly when k < ceil(x * 2^53), as scaling by a power
/// of two is exact and k is an integer. The result is clamped to
/// [0, 2^53] before the cast (a NaN x, which no r is below, maps to 0).
[[nodiscard]] std::uint64_t rmat_threshold(double x) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  const double t = std::ceil(std::ldexp(x, 53));
  if (!(t > 0.0)) {
    return 0;
  }
  return t >= static_cast<double>(kOne) ? kOne
                                        : static_cast<std::uint64_t>(t);
}

}  // namespace

RmatStream::RmatStream(unsigned scale, unsigned edge_factor,
                       const RmatOptions& options)
    : options_(options), scale_(scale), rng_(options.seed),
      edges_start_(options.seed) {
  if (scale >= 32) {
    throw std::invalid_argument("rmat scale must be < 32 for 32-bit ids");
  }
  // The sums are rounded as doubles, as the quadrant tests always have.
  // The running maxima make the thresholds non-decreasing: a test that
  // comes after a failed one with a lower bound (negative b, say) can
  // never pass, and so its quadrant must be empty.
  const double ab = options_.a + options_.b;
  const double abc = ab + options_.c;
  t_a_ = rmat_threshold(options_.a);
  t_ab_ = std::max(t_a_, rmat_threshold(ab));
  t_abc_ = std::max(t_ab_, rmat_threshold(abc));
  const vid_t n = vid_t{1} << scale;
  m_ = static_cast<eid_t>(edge_factor) * n;

  // Optional id scrambling: a random permutation of [0, n), drawn from
  // the same generator stream ahead of the edges (historical rmat()
  // behaviour, preserved bit for bit).
  if (options_.scramble_ids) {
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), vid_t{0});
    for (vid_t i = n; i > 1; --i) {
      const auto j = static_cast<vid_t>(rng_.next_below(i));
      std::swap(perm_[i - 1], perm_[j]);
    }
  }
  // Snapshot the post-permutation state: restart() is a copy, not a
  // replay of the permutation draw.
  edges_start_ = rng_;
}

void RmatStream::restart() {
  rng_ = edges_start_;
  produced_ = 0;
}

bool RmatStream::next(Edge& e) {
  if (produced_ >= m_) {
    return false;
  }
  vid_t row = 0;
  vid_t col = 0;
  for (unsigned bit = 0; bit < scale_; ++bit) {
    const std::uint64_t k = rng_() >> 11;
    const bool past_a = k >= t_a_;
    const bool past_ab = k >= t_ab_;
    const bool past_abc = k >= t_abc_;
    row = (row << 1) | static_cast<vid_t>(past_ab);
    col = (col << 1) | static_cast<vid_t>(past_a ^ past_ab ^ past_abc);
  }
  if (options_.scramble_ids) {
    row = perm_[row];
    col = perm_[col];
  }
  e = Edge{row, col};
  ++produced_;
  return true;
}

EdgeList rmat(unsigned scale, unsigned edge_factor,
              const RmatOptions& options) {
  RmatStream stream(scale, edge_factor, options);
  std::vector<Edge> edges;
  edges.reserve(stream.num_edges());
  Edge e;
  while (stream.next(e)) {
    edges.push_back(e);
  }
  return EdgeList(std::move(edges));
}

EdgeList uniform_random(vid_t num_vertices, eid_t num_edges,
                        std::uint64_t seed) {
  if (num_vertices < 2 && num_edges > 0) {
    throw std::invalid_argument(
        "uniform_random needs >= 2 vertices to avoid self-loops");
  }
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (eid_t e = 0; e < num_edges; ++e) {
    const auto src = static_cast<vid_t>(rng.next_below(num_vertices));
    auto dst = static_cast<vid_t>(rng.next_below(num_vertices - 1));
    if (dst >= src) {
      ++dst;  // skip the diagonal: uniform over all non-loop endpoints
    }
    edges.push_back(Edge{src, dst});
  }
  return EdgeList(std::move(edges));
}

EdgeList grid_2d(vid_t rows, vid_t cols, const GridOptions& options) {
  if (rows == 0 || cols == 0) {
    return {};
  }
  Xoshiro256 rng(options.seed);
  EdgeList list;
  const auto add_link = [&](vid_t u, vid_t v) {
    if (options.removal_fraction > 0.0 &&
        rng.next_double() < options.removal_fraction) {
      return;
    }
    if (options.max_weight > 0) {
      const auto w = static_cast<weight_t>(
          1 + rng.next_below(options.max_weight));
      list.add(u, v, w);
      list.add(v, u, w);
    } else {
      list.add(u, v);
      list.add(v, u);
    }
  };
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      const vid_t u = r * cols + c;
      if (c + 1 < cols) {
        add_link(u, u + 1);
      }
      if (r + 1 < rows) {
        add_link(u, u + cols);
      }
    }
  }
  return list;
}

EdgeList path_graph(vid_t n) {
  EdgeList list;
  for (vid_t i = 0; i + 1 < n; ++i) {
    list.add(i, i + 1);
  }
  return list;
}

EdgeList cycle_graph(vid_t n) {
  EdgeList list;
  if (n == 0) {
    return list;
  }
  for (vid_t i = 0; i < n; ++i) {
    list.add(i, (i + 1) % n);
  }
  return list;
}

EdgeList star_graph(vid_t n, bool bidirectional) {
  EdgeList list;
  for (vid_t i = 1; i < n; ++i) {
    list.add(0, i);
    if (bidirectional) {
      list.add(i, 0);
    }
  }
  return list;
}

EdgeList complete_graph(vid_t n) {
  EdgeList list;
  for (vid_t i = 0; i < n; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (i != j) {
        list.add(i, j);
      }
    }
  }
  return list;
}

EdgeList binary_tree(unsigned levels, bool bidirectional) {
  EdgeList list;
  if (levels == 0) {
    return list;
  }
  const vid_t n = (vid_t{1} << levels) - 1;
  for (vid_t child = 1; child < n; ++child) {
    const vid_t parent = (child - 1) / 2;
    list.add(parent, child);
    if (bidirectional) {
      list.add(child, parent);
    }
  }
  return list;
}

void shift_ids(EdgeList& list, vid_t base) {
  for (Edge& e : list.edges()) {
    e.src += base;
    e.dst += base;
  }
}

}  // namespace ipregel::graph
