// The paged store's on-disk contract: the emitted arrays are the CSR's own
// arrays byte for byte, the streaming build is byte-identical to the in-RAM
// build, and every way the bytes can be damaged surfaces as a typed
// PageError naming what was violated — never silently-wrong edges.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_stream.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
#include "store/page_error.hpp"
#include "store/page_format.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"

/// While armed (non-zero), any single allocation larger than this many
/// bytes fails with std::bad_alloc. A build that sized an array by the
/// largest id, rather than by the id range, fails here instead of taking
/// the machine's memory.
std::atomic<std::size_t> g_alloc_cap{0};

void* operator new(std::size_t n) {
  const std::size_t cap = g_alloc_cap.load(std::memory_order_relaxed);
  if (cap != 0 && n > cap) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so that the compiler does not pair an inlined free() with
// the operator new at a call site and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ipregel::store {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using io::FaultyVfs;

constexpr const char* kPath = "/store/graph.pages";

CsrGraph build_csr(const EdgeList& edges, bool in_edges, bool weights) {
  return CsrGraph::build(
      edges, graph::CsrBuildOptions{
                 .addressing = graph::AddressingMode::kOffset,
                 .build_in_edges = in_edges,
                 .keep_weights = weights});
}

/// Reconstructs the prefix-sum array the store's u64 offset section must
/// hold, from the graph's public degree API.
std::vector<std::uint64_t> expected_offsets(const CsrGraph& g, bool in) {
  std::vector<std::uint64_t> offsets(g.num_slots() + 1, 0);
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    const std::size_t d =
        s < g.first_slot() ? 0 : (in ? g.in_degree(s) : g.out_degree(s));
    offsets[s + 1] = offsets[s] + d;
  }
  return offsets;
}

TEST(StoreFormat, RoundTripMatchesCsrArrays) {
  const EdgeList edges = graph::grid_2d(
      9, 7, {.removal_fraction = 0.15, .max_weight = 9, .seed = 11});
  const CsrGraph g = build_csr(edges, /*in_edges=*/true, /*weights=*/true);

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 128});

  const PagedStore store(vfs, kPath);
  const Superblock& sb = store.superblock();
  EXPECT_EQ(sb.num_vertices, g.num_vertices());
  EXPECT_EQ(sb.num_slots, g.num_slots());
  EXPECT_EQ(sb.first_slot, g.first_slot());
  EXPECT_EQ(sb.num_edges, g.num_edges());
  EXPECT_EQ(sb.id_offset, g.id_offset());
  EXPECT_TRUE(sb.has_weights());
  EXPECT_TRUE(sb.has_in_edges());
  EXPECT_EQ(sb.page_bytes, 128u);

  EXPECT_EQ(store.load_u64_section(Section::kOutOffsets),
            expected_offsets(g, /*in=*/false));
  EXPECT_EQ(store.load_u64_section(Section::kInOffsets),
            expected_offsets(g, /*in=*/true));

  const std::vector<std::uint32_t> out = store.load_u32_section(
      Section::kOutTargets);
  const std::vector<std::uint32_t> weights = store.load_u32_section(
      Section::kWeights);
  const std::vector<std::uint32_t> in = store.load_u32_section(
      Section::kInTargets);
  ASSERT_EQ(out.size(), g.num_edges());
  ASSERT_EQ(weights.size(), g.num_edges());
  ASSERT_EQ(in.size(), g.num_edges());
  std::size_t e = 0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    const auto targets = g.out_neighbours(s);
    const auto ws = g.out_weights(s);
    for (std::size_t i = 0; i < targets.size(); ++i, ++e) {
      ASSERT_EQ(out[e], targets[i]) << "edge " << e;
      ASSERT_EQ(weights[e], ws[i]) << "edge " << e;
    }
  }
  e = 0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    for (const graph::vid_t src : g.in_neighbours(s)) {
      ASSERT_EQ(in[e], src) << "in-edge " << e;
      ++e;
    }
  }
}

TEST(StoreFormat, OffsetAddressingRoundTrips) {
  // Ids starting at 1000: the store must carry id_offset/first_slot so a
  // paged run addresses exactly the slots the in-RAM run does.
  EdgeList edges = graph::cycle_graph(32);
  graph::shift_ids(edges, 1000);
  const CsrGraph g = build_csr(edges, /*in_edges=*/true, /*weights=*/false);

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  EXPECT_EQ(store.superblock().id_offset, g.id_offset());
  EXPECT_EQ(store.superblock().first_slot, g.first_slot());
  EXPECT_FALSE(store.superblock().has_weights());
  EXPECT_EQ(store.load_u64_section(Section::kOutOffsets),
            expected_offsets(g, /*in=*/false));
}

/// Counts restart() calls: each is one pass over the source.
class CountingSource final : public graph::EdgeSource {
 public:
  explicit CountingSource(const EdgeList& list) : inner_(list) {}
  void restart() override {
    ++restarts;
    inner_.restart();
  }
  bool next(graph::Edge& e) override { return inner_.next(e); }
  [[nodiscard]] graph::eid_t num_edges() const override {
    return inner_.num_edges();
  }
  int restarts = 0;

 private:
  graph::EdgeListSource inner_;
};

TEST(StoreFormat, StreamingBuildIsByteIdenticalToInRamBuild) {
  // The headline contract of the beyond-RAM input path: scattering the
  // edge stream chunk by chunk produces the SAME FILE as building the
  // full CSR in memory and serialising it. Every addressing mode x
  // in-edges on/off x one or many scatter chunks, over two edge orders:
  // the generator's, and one whose first edge holds the largest id, so
  // that every later id lies below the first one seen. The source is
  // read once to count degrees and once per scatter chunk.
  using graph::AddressingMode;
  for (const AddressingMode mode :
       {AddressingMode::kDirect, AddressingMode::kOffset,
        AddressingMode::kDesolate}) {
    const graph::vid_t base = mode == AddressingMode::kDirect ? 0 : 1000;
    EdgeList generated = graph::rmat(9, 8, {.seed = 21});  // 4096 edges
    graph::shift_ids(generated, base);
    EdgeList largest_first;
    largest_first.add(base + 900, base + 3);
    for (const graph::Edge& e : generated.edges()) {
      largest_first.add(e.src, e.dst);
    }
    for (const EdgeList* edges : {&generated, &largest_first}) {
      for (const bool in_edges : {false, true}) {
        // The scatter chunk is at least 1024 targets: a 1-byte budget
        // splits each target section into ceil(m / 1024) chunks.
        for (const std::size_t budget :
             {std::size_t{1}, std::size_t{1} << 20}) {
          SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                       (edges == &generated ? " generated" : " largest") +
                       (in_edges ? " in-edges" : "") + " budget " +
                       std::to_string(budget));
          const CsrGraph g = CsrGraph::build(
              *edges, {.addressing = mode, .build_in_edges = in_edges});
          FaultyVfs vfs;
          write_store(g, "/ram.pages", &vfs, {.page_bytes = 256});
          CountingSource source(*edges);
          write_store_streaming(source, "/streamed.pages", &vfs,
                                {.page_bytes = 256,
                                 .addressing = mode,
                                 .build_in_edges = in_edges,
                                 .edge_ram_budget_bytes = budget});
          EXPECT_EQ(vfs.read_all("/ram.pages"),
                    vfs.read_all("/streamed.pages"));
          const int chunks =
              budget == 1 ? static_cast<int>((edges->size() + 1023) / 1024)
                          : 1;
          EXPECT_EQ(source.restarts, 1 + chunks + (in_edges ? chunks : 0));
        }
      }
    }
  }
}

TEST(StoreFormat, StreamingOffsetBuildSizesByIdRangeNotLargestId) {
  // Ids in [2^32 - 16, 2^32 - 1], first seen in the middle of the range.
  // Offset addressing must count over the 16 ids that occur: an array
  // sized by the largest id would be 2^32 entries. Desolate addressing
  // does keep slot == id, so it does ask for such an array: the control
  // that the allocation cap bites.
  constexpr graph::vid_t kTop = 0xFFFFFFFFu;
  EdgeList edges;
  edges.add(kTop - 8, kTop - 15);
  for (graph::vid_t i = 0; i < 16; ++i) {
    edges.add(kTop - i, kTop - (i * 7) % 16);
    edges.add(kTop - (i * 5) % 16, kTop - i);
  }
  FaultyVfs vfs;
  const CsrGraph g = CsrGraph::build(
      edges, {.addressing = graph::AddressingMode::kOffset,
              .build_in_edges = true});
  write_store(g, "/ram.pages", &vfs, {.page_bytes = 64});

  graph::EdgeListSource source(edges);
  g_alloc_cap = std::size_t{1} << 20;
  EXPECT_NO_THROW(write_store_streaming(
      source, "/streamed.pages", &vfs,
      {.page_bytes = 64,
       .addressing = graph::AddressingMode::kOffset,
       .build_in_edges = true}));
  EXPECT_THROW(write_store_streaming(
                   source, "/desolate.pages", &vfs,
                   {.page_bytes = 64,
                    .addressing = graph::AddressingMode::kDesolate}),
               std::bad_alloc);
  g_alloc_cap = 0;
  EXPECT_EQ(vfs.read_all("/ram.pages"), vfs.read_all("/streamed.pages"));
  EXPECT_FALSE(vfs.exists("/desolate.pages"));
}

TEST(StoreFormat, StreamingDirectBuildRejectsNonZeroMinIdWithoutAFile) {
  EdgeList edges = graph::cycle_graph(32);
  graph::shift_ids(edges, 5);
  graph::EdgeListSource source(edges);
  FaultyVfs vfs;
  vfs.mkdir("/store");
  EXPECT_THROW(
      write_store_streaming(source, kPath, &vfs,
                            {.addressing = graph::AddressingMode::kDirect}),
      std::invalid_argument);
  EXPECT_FALSE(vfs.exists(kPath));
  EXPECT_TRUE(vfs.list("/store").empty());
}

TEST(StoreFormat, RejectsBadPageSizes) {
  EXPECT_THROW(validate_page_bytes(0), std::invalid_argument);
  EXPECT_THROW(validate_page_bytes(32), std::invalid_argument);   // < minimum
  EXPECT_THROW(validate_page_bytes(100), std::invalid_argument);  // % 8 != 0
  EXPECT_NO_THROW(validate_page_bytes(64));
  EXPECT_NO_THROW(validate_page_bytes(1 << 16));
}

TEST(StoreFormat, GarbageFileFailsTypedAsBadSuperblock) {
  FaultyVfs vfs;
  {
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    std::vector<std::uint8_t> zeros(kSuperblockBytes, 0);
    f->write(zeros.data(), zeros.size());
    f->close();
  }
  try {
    const PagedStore store(vfs, kPath);
    FAIL() << "opened a garbage superblock";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadSuperblock);
  }
}

TEST(StoreFormat, TruncatedFileFailsTypedAsShortRead) {
  FaultyVfs vfs;
  {
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    const std::uint8_t byte = 0x42;
    f->write(&byte, 1);
    f->close();
  }
  try {
    const PagedStore store(vfs, kPath);
    FAIL() << "opened a truncated superblock";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kShortRead);
  }
}

/// Writes a valid store, then corrupts one byte at `at` through the live
/// view, returning the vfs ready for reads.
void write_then_flip(FaultyVfs& vfs, std::size_t at) {
  const CsrGraph g =
      build_csr(graph::cycle_graph(64), /*in_edges=*/true, /*weights=*/false);
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
  ASSERT_LT(at, bytes.size());
  bytes[at] ^= 0x01;
  const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
  f->write(bytes.data(), bytes.size());
  f->close();
}

TEST(StoreFormat, FlippedSuperblockBitIsTyped) {
  FaultyVfs vfs;
  write_then_flip(vfs, 40);  // inside the field area, before the CRC
  try {
    const PagedStore store(vfs, kPath);
    FAIL() << "accepted a superblock whose CRC cannot match";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadSuperblock);
  }
}

TEST(StoreFormat, FlippedPayloadBitFailsTheSeal) {
  FaultyVfs vfs;
  // First byte of page 0's payload slot.
  write_then_flip(vfs, kSuperblockBytes + kPageHeaderBytes);
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  try {
    (void)store.read_page(0, out.data());
    FAIL() << "served a payload that fails its seal";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadCrc);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.page(), 0u);
  }
}

TEST(StoreFormat, FlippedPaddingBitFailsTheSeal) {
  // The seal covers the ENTIRE slot including zero padding: rot in the
  // padding of the last (short) page must be detected too.
  FaultyVfs vfs;
  const CsrGraph g =
      build_csr(graph::cycle_graph(10), /*in_edges=*/true, /*weights=*/false);
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  {
    std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
    bytes.back() ^= 0x80;  // last padding byte of the last page
    const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
    f->write(bytes.data(), bytes.size());
    f->close();
  }
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  const std::uint64_t last = store.num_pages() - 1;
  try {
    (void)store.read_page(last, out.data());
    FAIL() << "padding rot went undetected";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadCrc);
  }
}

TEST(StoreFormat, WrongPageMagicIsBadHeader) {
  FaultyVfs vfs;
  write_then_flip(vfs, kSuperblockBytes);  // first byte of page 0's magic
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  try {
    (void)store.read_page(0, out.data());
    FAIL() << "accepted a page with a wrong magic";
  } catch (const PageError& e) {
    EXPECT_EQ(e.kind(), PageErrorKind::kBadHeader);
    EXPECT_TRUE(e.retryable());
  }
}

TEST(StoreFormat, OutOfRangePageIsBadHeader) {
  FaultyVfs vfs;
  const CsrGraph g =
      build_csr(graph::cycle_graph(8), /*in_edges=*/true, /*weights=*/false);
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  std::vector<std::uint8_t> out(store.page_stride());
  EXPECT_THROW((void)store.read_page(store.num_pages(), out.data()),
               PageError);
}

TEST(StoreFormat, PublishIsAtomic) {
  // AtomicFile discipline: the tmp name never survives a successful write,
  // and a rewrite over an existing store replaces it wholesale.
  FaultyVfs vfs;
  const CsrGraph small =
      build_csr(graph::cycle_graph(8), /*in_edges=*/true, /*weights=*/false);
  const CsrGraph big =
      build_csr(graph::cycle_graph(200), /*in_edges=*/true,
                /*weights=*/false);
  write_store(small, kPath, &vfs, {.page_bytes = 64});
  write_store(big, kPath, &vfs, {.page_bytes = 64});
  EXPECT_FALSE(vfs.exists(std::string(kPath) + ".tmp"));
  const PagedStore store(vfs, kPath);
  EXPECT_EQ(store.superblock().num_vertices, 200u);
}

}  // namespace
}  // namespace ipregel::store
