#pragma once

#include <cstddef>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_stream.hpp"
#include "graph/types.hpp"
#include "io/vfs.hpp"
#include "store/page_format.hpp"

namespace ipregel::store {

/// Options for writing a paged store file.
struct StoreWriteOptions {
  /// Payload-slot capacity per page. Must be >= kMinPageBytes and a
  /// multiple of kPageAlign (so no element straddles a page boundary).
  std::size_t page_bytes = std::size_t{1} << 16;
};

/// Serialises a built CsrGraph into a paged store file at `path`,
/// published via io::AtomicFile (crash-safe: the final name either holds
/// the previous complete file or the new complete file, never a torn
/// one). The emitted arrays are byte-for-byte the graph's own CSR arrays,
/// so a paged run over the store sees exactly the topology an in-RAM run
/// sees — the foundation of the bit-identity guarantee.
///
/// Throws std::invalid_argument for a bad page size and io::IoError for
/// filesystem failures.
void write_store(const graph::CsrGraph& graph, const std::string& path,
                 io::Vfs* vfs = nullptr, const StoreWriteOptions& options = {});

/// Options for the streaming (beyond-RAM) store build.
struct StreamingBuildOptions {
  std::size_t page_bytes = std::size_t{1} << 16;
  graph::AddressingMode addressing = graph::AddressingMode::kOffset;
  bool build_in_edges = false;
  /// Bound on the scatter buffer used to place edge targets: the builder
  /// never materialises more than this many bytes of the edge arrays at
  /// once, re-streaming the source once per chunk instead. Vertex-sized
  /// arrays (degree counts, offsets) stay resident — they are O(V), the
  /// same budget class as the engine's values and mailboxes.
  std::size_t edge_ram_budget_bytes = std::size_t{1} << 24;
};

/// Builds a paged store at `path` directly from an edge stream WITHOUT
/// ever materialising the edge list or the CSR arrays in memory. One pass
/// over the source counts degrees and finds the id range; the counting
/// memory is O(max id - min id) in every addressing mode. Each target
/// array is then scattered chunk by chunk within `edge_ram_budget_bytes`
/// (at least 1024 targets a chunk), one pass over the source per chunk:
/// 1 + chunks passes in all, or 1 + 2 * chunks with in-edges. The
/// resulting file is byte-identical to write_store(CsrGraph::build(same
/// edges)) with the same page size — the chunked scatter replicates the
/// CSR builder's stable counting sort exactly.
///
/// The stream is unweighted (the store's kWeights section is absent).
/// Throws std::invalid_argument for bad options (including kDirect
/// addressing when ids do not start at 0) and io::IoError for filesystem
/// failures.
void write_store_streaming(graph::EdgeSource& source, const std::string& path,
                           io::Vfs* vfs = nullptr,
                           const StreamingBuildOptions& options = {});

/// Validates a page size against the format constraints; throws
/// std::invalid_argument with a precise message when unusable.
void validate_page_bytes(std::size_t page_bytes);

}  // namespace ipregel::store
