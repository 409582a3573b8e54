#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/edge_stream.hpp"
#include "runtime/rng.hpp"

namespace ipregel::graph {

/// Deterministic synthetic graph generators.
///
/// The paper evaluates on Wikipedia/dbpedia-link (scale-free, dense) and
/// the USA road network (near-constant low degree, huge diameter), and in
/// section 7.4.2 builds proportionally scaled synthetic clones of Twitter.
/// The generators here produce stand-ins with the same structural drivers;
/// all take an explicit seed and are bit-reproducible.

/// Options for the R-MAT generator.
struct RmatOptions {
  double a = 0.57;  ///< Graph500 defaults
  double b = 0.19;
  double c = 0.19;
  std::uint64_t seed = 1;
  /// Randomly permute vertex ids so the recursive structure does not leave
  /// the high-degree vertices clustered at low ids.
  bool scramble_ids = true;
};

/// R-MAT / Kronecker power-law generator (Graph500 kernel): 2^scale
/// vertices, edge_factor * 2^scale directed edges. The stand-in for the
/// paper's Wikipedia graph.
[[nodiscard]] EdgeList rmat(unsigned scale, unsigned edge_factor,
                            const RmatOptions& options = {});

/// Restartable R-MAT edge stream: yields EXACTLY the edges rmat() with
/// the same parameters returns, in the same order, generating each edge
/// on demand instead of materialising the list — the beyond-RAM input
/// path (a scale-24 edge-factor-16 graph is 2 GB as an edge list and a
/// few hundred resident bytes as this stream).
///
/// Only the O(V) id-scrambling permutation stays resident; restart() is
/// O(1) — the generator RNG state is snapshotted after the permutation is
/// drawn, so every pass replays the identical edge sequence. rmat() is
/// implemented on top of this stream, which is what keeps the two
/// bit-identical by construction.
///
/// Each recursion level draws one 64-bit word and keeps its top 53 bits,
/// k, so the level's uniform is r = k * 2^-53 exactly. The quadrant tests
/// r < a, r < a+b and r < a+b+c are therefore integer tests k < t against
/// thresholds fixed in the constructor, and next() picks the quadrant
/// without a branch.
class RmatStream final : public EdgeSource {
 public:
  /// Throws std::invalid_argument for scale >= 32 (ids are 32-bit).
  RmatStream(unsigned scale, unsigned edge_factor,
             const RmatOptions& options = {});

  void restart() override;
  bool next(Edge& e) override;
  [[nodiscard]] eid_t num_edges() const override { return m_; }

 private:
  RmatOptions options_;
  unsigned scale_;
  eid_t m_ = 0;
  eid_t produced_ = 0;
  std::vector<vid_t> perm_;
  /// Quadrant thresholds on k, non-decreasing: k < t_a_ is the top-left
  /// quadrant, [t_a_, t_ab_) top-right, [t_ab_, t_abc_) bottom-left, and
  /// the rest bottom-right.
  std::uint64_t t_a_ = 0;
  std::uint64_t t_ab_ = 0;
  std::uint64_t t_abc_ = 0;
  runtime::Xoshiro256 rng_;          ///< current position in the stream
  runtime::Xoshiro256 edges_start_;  ///< state right after the permutation
};

/// Uniform random directed multigraph: exactly `num_edges` edges with
/// endpoints uniform over [0, num_vertices). Self-loops are excluded;
/// duplicate edges are allowed (they are legitimate multi-edges for the
/// memory experiments, exactly as in the paper's scaled-Twitter clones
/// whose degree distribution "has no impact on ... the memory footprint").
[[nodiscard]] EdgeList uniform_random(vid_t num_vertices, eid_t num_edges,
                                      std::uint64_t seed);

/// Options for the 2-D road-network generator.
struct GridOptions {
  /// Fraction of lattice links removed at random, mimicking the
  /// irregularity of a real road network (0 keeps the full lattice).
  double removal_fraction = 0.0;
  /// If > 0, attach a uniform weight in [1, max_weight] to every edge.
  weight_t max_weight = 0;
  std::uint64_t seed = 1;
};

/// rows x cols 4-neighbour lattice with both edge directions — the stand-in
/// for the USA road network: average degree < 4 and diameter rows + cols,
/// which drives the thousands-of-supersteps regime where selection bypass
/// dominates. Removal keeps the graph's id space dense (isolated vertices
/// may appear) but never removes both directions of a link independently —
/// links are dropped as undirected pairs so the graph stays symmetric.
[[nodiscard]] EdgeList grid_2d(vid_t rows, vid_t cols,
                               const GridOptions& options = {});

/// Directed path 0 -> 1 -> ... -> n-1. Worst-case diameter; used by tests
/// and the selection ablation.
[[nodiscard]] EdgeList path_graph(vid_t n);

/// Directed cycle 0 -> 1 -> ... -> n-1 -> 0.
[[nodiscard]] EdgeList cycle_graph(vid_t n);

/// Star: centre 0 with edges 0 -> i for i in [1, n). With `bidirectional`,
/// also i -> 0.
[[nodiscard]] EdgeList star_graph(vid_t n, bool bidirectional = false);

/// Complete directed graph on n vertices (no self-loops). Small n only.
[[nodiscard]] EdgeList complete_graph(vid_t n);

/// Complete binary tree with `levels` levels, edges parent -> child (and
/// child -> parent when `bidirectional`).
[[nodiscard]] EdgeList binary_tree(unsigned levels, bool bidirectional = true);

/// Shifts every vertex id by `base`, producing a graph whose ids start at
/// `base` — used to exercise offset and desolate addressing.
void shift_ids(EdgeList& list, vid_t base);

}  // namespace ipregel::graph
