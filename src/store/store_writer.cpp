#include "store/store_writer.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "io/stream.hpp"

namespace ipregel::store {

using graph::eid_t;
using graph::vid_t;

void validate_page_bytes(std::size_t page_bytes) {
  if (page_bytes < kMinPageBytes) {
    throw std::invalid_argument("store page_bytes must be >= " +
                                std::to_string(kMinPageBytes) + " (got " +
                                std::to_string(page_bytes) + ")");
  }
  if (page_bytes % kPageAlign != 0) {
    throw std::invalid_argument(
        "store page_bytes must be a multiple of " +
        std::to_string(kPageAlign) +
        " so no array element straddles a page boundary (got " +
        std::to_string(page_bytes) + ")");
  }
  if (page_bytes > 0xFFFFFFFFull) {
    throw std::invalid_argument("store page_bytes must fit in 32 bits");
  }
}

namespace {

[[nodiscard]] std::uint64_t pages_for(std::uint64_t bytes,
                                      std::size_t page_bytes) noexcept {
  return (bytes + page_bytes - 1) / page_bytes;
}

/// Streams section bytes into sealed fixed-stride pages. Each section
/// starts on a fresh page; the final (possibly partial) page of a section
/// is zero-padded to full capacity and sealed like any other.
class PageWriter {
 public:
  PageWriter(std::ostream& out, std::size_t page_bytes)
      : out_(out), page_bytes_(page_bytes), slot_(page_bytes, 0) {}

  void append(const void* data, std::size_t n) {
    section_bytes_ += n;
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
      const std::size_t room = page_bytes_ - fill_;
      const std::size_t take = std::min(room, n);
      std::memcpy(slot_.data() + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ == page_bytes_) {
        seal_page();
      }
    }
  }

  /// Ends the current section: seals a trailing partial page (if any) and
  /// returns where the section landed.
  SectionRef finish_section() {
    if (fill_ > 0) {
      seal_page();
    }
    SectionRef ref{section_first_page_, page_index_ - section_first_page_,
                   section_bytes_};
    section_first_page_ = page_index_;
    section_bytes_ = 0;
    return ref;
  }

 private:
  void seal_page() {
    // Zero the unused tail so the seal covers deterministic bytes.
    std::memset(slot_.data() + fill_, 0, page_bytes_ - fill_);
    PageHeader header;
    header.page_index = static_cast<std::uint32_t>(page_index_);
    header.payload_bytes = static_cast<std::uint32_t>(fill_);
    header.crc = page_crc(header, slot_.data(), page_bytes_);
    out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out_.write(reinterpret_cast<const char*>(slot_.data()),
               static_cast<std::streamsize>(page_bytes_));
    ++page_index_;
    fill_ = 0;
  }

  std::ostream& out_;
  std::size_t page_bytes_;
  std::vector<std::uint8_t> slot_;
  std::size_t fill_ = 0;
  std::uint64_t page_index_ = 0;
  std::uint64_t section_first_page_ = 0;
  std::uint64_t section_bytes_ = 0;
};

/// Lays out the section table ahead of time (the superblock is written
/// before any page, and the file is strictly sequential).
void layout_sections(Superblock& sb, std::size_t page_bytes,
                     std::size_t num_slots, std::uint64_t num_edges) {
  const std::uint64_t offsets_bytes =
      (static_cast<std::uint64_t>(num_slots) + 1) * sizeof(eid_t);
  const std::uint64_t targets_bytes = num_edges * sizeof(vid_t);
  std::uint64_t next_page = 0;
  const auto place = [&](Section s, std::uint64_t bytes, bool present) {
    SectionRef& ref = sb.section(s);
    ref.first_page = next_page;
    ref.payload_bytes = present ? bytes : 0;
    ref.num_pages = present ? pages_for(bytes, page_bytes) : 0;
    next_page += ref.num_pages;
  };
  place(Section::kOutOffsets, offsets_bytes, true);
  place(Section::kOutTargets, targets_bytes, true);
  place(Section::kWeights, targets_bytes, sb.has_weights());
  place(Section::kInOffsets, offsets_bytes, sb.has_in_edges());
  place(Section::kInTargets, targets_bytes, sb.has_in_edges());
}

void write_superblock(std::ostream& out, const Superblock& sb) {
  std::uint8_t block[kSuperblockBytes];
  encode_superblock(sb, block);
  out.write(reinterpret_cast<const char*>(block), sizeof(block));
}

void check_layout(const Superblock& sb, Section s, const SectionRef& got) {
  const SectionRef& want = sb.section(s);
  if (want.first_page != got.first_page || want.num_pages != got.num_pages ||
      want.payload_bytes != got.payload_bytes) {
    throw std::logic_error(
        "store writer: section landed off its precomputed layout");
  }
}

}  // namespace

void write_store(const graph::CsrGraph& graph, const std::string& path,
                 io::Vfs* vfs, const StoreWriteOptions& options) {
  validate_page_bytes(options.page_bytes);
  io::Vfs& fs = io::vfs_or_real(vfs);

  Superblock sb;
  sb.page_bytes = static_cast<std::uint32_t>(options.page_bytes);
  sb.num_vertices = graph.num_vertices();
  sb.num_slots = graph.num_slots();
  sb.first_slot = graph.first_slot();
  sb.num_edges = graph.num_edges();
  sb.id_offset = graph.id_offset();
  sb.flags = (graph.has_weights() ? kFlagHasWeights : 0u) |
             (graph.has_in_edges() ? kFlagHasInEdges : 0u);
  layout_sections(sb, options.page_bytes, graph.num_slots(),
                  graph.num_edges());

  io::AtomicFile file(fs, path);
  write_superblock(file.stream(), sb);
  PageWriter pages(file.stream(), options.page_bytes);

  // Rebuild the prefix-sum arrays from the graph's public degree API:
  // identical values to its private arrays, slot by slot.
  const std::size_t slots = graph.num_slots();
  {
    std::vector<eid_t> offsets(slots + 1, 0);
    for (std::size_t s = 0; s < slots; ++s) {
      offsets[s + 1] = offsets[s] + graph.out_degree(s);
    }
    pages.append(offsets.data(), offsets.size() * sizeof(eid_t));
    check_layout(sb, Section::kOutOffsets, pages.finish_section());
  }
  for (std::size_t s = 0; s < slots; ++s) {
    const auto span = graph.out_neighbours(s);
    pages.append(span.data(), span.size() * sizeof(vid_t));
  }
  check_layout(sb, Section::kOutTargets, pages.finish_section());
  if (graph.has_weights()) {
    for (std::size_t s = 0; s < slots; ++s) {
      const auto span = graph.out_weights(s);
      pages.append(span.data(), span.size() * sizeof(graph::weight_t));
    }
  }
  check_layout(sb, Section::kWeights, pages.finish_section());
  if (graph.has_in_edges()) {
    std::vector<eid_t> offsets(slots + 1, 0);
    for (std::size_t s = 0; s < slots; ++s) {
      offsets[s + 1] = offsets[s] + graph.in_degree(s);
    }
    pages.append(offsets.data(), offsets.size() * sizeof(eid_t));
    check_layout(sb, Section::kInOffsets, pages.finish_section());
    for (std::size_t s = 0; s < slots; ++s) {
      const auto span = graph.in_neighbours(s);
      pages.append(span.data(), span.size() * sizeof(vid_t));
    }
    check_layout(sb, Section::kInTargets, pages.finish_section());
  } else {
    check_layout(sb, Section::kInOffsets, pages.finish_section());
    check_layout(sb, Section::kInTargets, pages.finish_section());
  }

  file.commit();
}

void write_store_streaming(graph::EdgeSource& source, const std::string& path,
                           io::Vfs* vfs,
                           const StreamingBuildOptions& options) {
  validate_page_bytes(options.page_bytes);
  io::Vfs& fs = io::vfs_or_real(vfs);
  const eid_t m = source.num_edges();

  Superblock sb;
  sb.page_bytes = static_cast<std::uint32_t>(options.page_bytes);
  sb.num_edges = m;
  sb.flags = options.build_in_edges ? kFlagHasInEdges : 0u;

  // Pass 1: id range (replicating CsrGraph::build's addressing maths).
  vid_t min_id = 0;
  vid_t max_id = 0;
  if (m > 0) {
    min_id = static_cast<vid_t>(-1);
    graph::Edge e;
    source.restart();
    while (source.next(e)) {
      min_id = std::min({min_id, e.src, e.dst});
      max_id = std::max({max_id, e.src, e.dst});
    }
    sb.num_vertices = static_cast<std::uint64_t>(max_id) - min_id + 1;
    switch (options.addressing) {
      case graph::AddressingMode::kDirect:
        if (min_id != 0) {
          throw std::invalid_argument(
              "direct mapping requires vertex ids starting at 0 (got min "
              "id " +
              std::to_string(min_id) + "); use offset or desolate mapping");
        }
        sb.id_offset = 0;
        sb.first_slot = 0;
        sb.num_slots = sb.num_vertices;
        break;
      case graph::AddressingMode::kOffset:
        sb.id_offset = min_id;
        sb.first_slot = 0;
        sb.num_slots = sb.num_vertices;
        break;
      case graph::AddressingMode::kDesolate:
        sb.id_offset = 0;
        sb.first_slot = min_id;
        sb.num_slots = static_cast<std::uint64_t>(max_id) + 1;
        break;
    }
  }
  const auto slot_of = [&](vid_t id) {
    return static_cast<std::size_t>(id - sb.id_offset);
  };
  const auto slots = static_cast<std::size_t>(sb.num_slots);

  // Pass 2: degree counts -> prefix sums (vertex-sized, stays resident).
  std::vector<eid_t> out_offsets(slots + 1, 0);
  std::vector<eid_t> in_offsets;
  if (m > 0) {
    graph::Edge e;
    source.restart();
    if (options.build_in_edges) {
      in_offsets.assign(slots + 1, 0);
      while (source.next(e)) {
        ++out_offsets[slot_of(e.src) + 1];
        ++in_offsets[slot_of(e.dst) + 1];
      }
      for (std::size_t s = 0; s < slots; ++s) {
        in_offsets[s + 1] += in_offsets[s];
      }
    } else {
      while (source.next(e)) {
        ++out_offsets[slot_of(e.src) + 1];
      }
    }
    for (std::size_t s = 0; s < slots; ++s) {
      out_offsets[s + 1] += out_offsets[s];
    }
  } else if (options.build_in_edges) {
    in_offsets.assign(slots + 1, 0);
  }

  layout_sections(sb, options.page_bytes, slots, m);

  io::AtomicFile file(fs, path);
  write_superblock(file.stream(), sb);
  PageWriter pages(file.stream(), options.page_bytes);

  pages.append(out_offsets.data(), out_offsets.size() * sizeof(eid_t));
  check_layout(sb, Section::kOutOffsets, pages.finish_section());

  // Chunked counting-sort scatter: targets for scatter positions
  // [lo, hi) are collected in one extra pass over the source, then the
  // chunk is streamed to pages. Edge-list order within a source vertex is
  // preserved (the cursor walks the stream in order), so the emitted
  // array is element-identical to CsrGraph::build's.
  const eid_t chunk_elems = std::max<eid_t>(
      1024, options.edge_ram_budget_bytes / sizeof(vid_t));
  const auto scatter_section =
      [&](const std::vector<eid_t>& offsets, bool by_dst, Section section) {
        std::vector<vid_t> buffer;
        std::vector<eid_t> cursor(slots);
        for (eid_t lo = 0; lo < m; lo += chunk_elems) {
          const eid_t hi = std::min<eid_t>(lo + chunk_elems, m);
          buffer.assign(static_cast<std::size_t>(hi - lo), 0);
          std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
          graph::Edge e;
          source.restart();
          while (source.next(e)) {
            const vid_t key = by_dst ? e.dst : e.src;
            const vid_t val = by_dst ? e.src : e.dst;
            const eid_t pos = cursor[slot_of(key)]++;
            if (pos >= lo && pos < hi) {
              buffer[static_cast<std::size_t>(pos - lo)] = val;
            }
          }
          pages.append(buffer.data(), buffer.size() * sizeof(vid_t));
        }
        check_layout(sb, section, pages.finish_section());
      };

  scatter_section(out_offsets, /*by_dst=*/false, Section::kOutTargets);
  check_layout(sb, Section::kWeights, pages.finish_section());
  if (options.build_in_edges) {
    pages.append(in_offsets.data(), in_offsets.size() * sizeof(eid_t));
    check_layout(sb, Section::kInOffsets, pages.finish_section());
    scatter_section(in_offsets, /*by_dst=*/true, Section::kInTargets);
  } else {
    check_layout(sb, Section::kInOffsets, pages.finish_section());
    check_layout(sb, Section::kInTargets, pages.finish_section());
  }

  file.commit();
}

}  // namespace ipregel::store
