#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "runtime/memory_tracker.hpp"

namespace ipregel::graph {

/// Immutable Compressed Sparse Row graph — the storage the whole framework
/// runs on.
///
/// In-memory shared-memory solutions "typically store all vertices in a
/// single array, so the location of a vertex is its index in that array"
/// (paper section 5). A CsrGraph owns that array layout plus the paper's
/// three id->slot addressing modes:
///
///  - kDirect:   slot == id              (ids must start at 0)
///  - kOffset:   slot == id - min_id     (one subtraction per lookup)
///  - kDesolate: slot == id              (ids may start above 0; the first
///                min_id slots are deliberately wasted so that lookups are
///                subtraction-free — "desolate memory")
///
/// Out-edges are always built. In-edges are built only on request: the pull
/// combiner needs them, every other configuration does not, and the paper's
/// section 6.2 makes the point that carrying unused neighbour arrays wastes
/// hundreds of megabytes at the 20M-vertex scale. The same applies to edge
/// weights. All topology bytes are registered with the MemoryTracker.
class CsrGraph;

/// Options controlling CSR construction.
struct CsrBuildOptions {
  AddressingMode addressing = AddressingMode::kOffset;
  bool build_in_edges = false;
  /// Keep the edge list's weights (ignored for unweighted input).
  bool keep_weights = true;
};

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds a CSR from an edge list. Throws std::invalid_argument if
  /// kDirect is requested but ids do not start at 0.
  [[nodiscard]] static CsrGraph build(const EdgeList& list,
                                      const CsrBuildOptions& options = {});

  /// Number of vertices in the graph's (dense, consecutive) id space.
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return num_vertices_;
  }
  /// Length of the vertex arrays; > num_vertices() under desolate mapping.
  [[nodiscard]] std::size_t num_slots() const noexcept { return num_slots_; }
  /// First populated slot; > 0 only under desolate mapping.
  [[nodiscard]] std::size_t first_slot() const noexcept { return first_slot_; }
  /// Value subtracted from an id to obtain its slot (offset mapping).
  [[nodiscard]] vid_t id_offset() const noexcept { return id_offset_; }

  [[nodiscard]] eid_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] bool has_in_edges() const noexcept {
    return !in_offsets_.empty();
  }
  [[nodiscard]] bool has_weights() const noexcept {
    return !out_weights_.empty();
  }

  [[nodiscard]] std::size_t slot_of(vid_t id) const noexcept {
    return static_cast<std::size_t>(id - id_offset_);
  }
  [[nodiscard]] vid_t id_of(std::size_t slot) const noexcept {
    return static_cast<vid_t>(slot) + id_offset_;
  }

  [[nodiscard]] std::span<const vid_t> out_neighbours(
      std::size_t slot) const noexcept {
    return {out_targets_.data() + out_offsets_[slot],
            out_targets_.data() + out_offsets_[slot + 1]};
  }
  [[nodiscard]] std::span<const weight_t> out_weights(
      std::size_t slot) const noexcept {
    return {out_weights_.data() + out_offsets_[slot],
            out_weights_.data() + out_offsets_[slot + 1]};
  }
  [[nodiscard]] std::span<const vid_t> in_neighbours(
      std::size_t slot) const noexcept {
    return {in_targets_.data() + in_offsets_[slot],
            in_targets_.data() + in_offsets_[slot + 1]};
  }

  [[nodiscard]] std::size_t out_degree(std::size_t slot) const noexcept {
    return out_offsets_[slot + 1] - out_offsets_[slot];
  }
  [[nodiscard]] std::size_t in_degree(std::size_t slot) const noexcept {
    return in_offsets_[slot + 1] - in_offsets_[slot];
  }

  /// The per-worker cursor the engine walks edges through. Resident edges
  /// need no pin, so it is empty and compiles away.
  struct Cursor {};

  /// Calls `fn(vid_t)` for every out-/in-neighbour of `slot`, in CSR order:
  /// the iteration interface the engine shares with store::PagedGraph.
  template <typename Fn>
  void for_each_out_target(std::size_t slot, Cursor&, Fn&& fn) const {
    for (const vid_t v : out_neighbours(slot)) {
      fn(v);
    }
  }
  template <typename Fn>
  void for_each_in_neighbour(std::size_t slot, Cursor&, Fn&& fn) const {
    for (const vid_t v : in_neighbours(slot)) {
      fn(v);
    }
  }

  /// Average out-degree |E| / |V| — "graph density" in the paper's
  /// discussion of pull-combiner and message-propagation behaviour.
  [[nodiscard]] double average_degree() const noexcept {
    return num_vertices_ == 0 ? 0.0
                              : static_cast<double>(num_edges_) /
                                    static_cast<double>(num_vertices_);
  }

  /// Bytes of topology (offsets + targets, in and out) owned by this graph.
  [[nodiscard]] std::size_t topology_bytes() const noexcept;

 private:
  std::size_t num_vertices_ = 0;
  std::size_t num_slots_ = 0;
  std::size_t first_slot_ = 0;
  vid_t id_offset_ = 0;
  eid_t num_edges_ = 0;

  std::vector<eid_t> out_offsets_;  // num_slots_ + 1
  std::vector<vid_t> out_targets_;  // num_edges_
  std::vector<weight_t> out_weights_;
  std::vector<eid_t> in_offsets_;
  std::vector<vid_t> in_targets_;

  runtime::MemReservation topology_mem_;
  runtime::MemReservation weight_mem_;
};

}  // namespace ipregel::graph
